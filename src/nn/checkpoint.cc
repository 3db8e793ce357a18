#include "nn/checkpoint.h"

#include <charconv>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/strings.h"

namespace rpas::nn {

namespace {
constexpr char kMagic[] = "RPASCKPT1";

/// The characters `istream >>` skips between tokens in the C locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// Forward cursor over a text checkpoint held in memory. See the acceptance
/// rules in nn/checkpoint.h.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Like std::getline: the bytes before the next '\n' (which is consumed)
  /// or before the end. False when nothing is left.
  bool Line(std::string_view* out) {
    if (pos_ == end_) {
      return false;
    }
    const void* nl = std::memchr(pos_, '\n', static_cast<size_t>(end_ - pos_));
    const char* stop = nl != nullptr ? static_cast<const char*>(nl) : end_;
    *out = std::string_view(pos_, static_cast<size_t>(stop - pos_));
    pos_ = nl != nullptr ? stop + 1 : end_;
    return true;
  }

  bool Size(size_t* out) {
    const char* first = TokenStart();
    size_t v = 0;
    const auto [stop, ec] = std::from_chars(first, end_, v);
    if (ec != std::errc() || !Finish(stop)) {
      return false;
    }
    *out = v;
    return true;
  }

  bool Double(double* out) {
    const char* first = TokenStart();
    if (first != pos_ && first != end_ && *first == '-') {
      return false;  // "+-1": from_chars would take the second sign
    }
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(first, end_, v);
    if (ec == std::errc::result_out_of_range) {
      // from_chars flags underflow to zero as well as overflow. strtod, which
      // istream uses, returns a signed zero for the first and HUGE_VAL (not
      // finite, rejected below) for the second.
      v = std::strtod(std::string(first, stop).c_str(), nullptr);
    } else if (ec != std::errc()) {
      return false;
    }
    if (!std::isfinite(v) || !Finish(stop)) {
      return false;
    }
    *out = v;
    return true;
  }

  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

 private:
  /// Skips whitespace and returns the token start past one leading '+'.
  const char* TokenStart() {
    while (pos_ != end_ && IsSpace(*pos_)) {
      ++pos_;
    }
    return pos_ != end_ && *pos_ == '+' ? pos_ + 1 : pos_;
  }

  /// Consumes a token ending at `stop` if whitespace follows it.
  bool Finish(const char* stop) {
    if (stop == end_ || !IsSpace(*stop)) {
      return false;
    }
    pos_ = stop;
    return true;
  }

  const char* pos_;
  const char* end_;
};

Result<std::string> ReadWholeFile(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (static_cast<uintmax_t>(in.gcount()) != size) {
    return Status::IoError("read of '" + path + "' failed");
  }
  return bytes;
}

}  // namespace

Status SaveParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out << kMagic << "\n" << signature << "\n" << params.size() << "\n";
  out.precision(17);
  for (const autodiff::Parameter* p : params) {
    out << p->value.rows() << " " << p->value.cols() << "\n";
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (i > 0) {
        out << " ";
      }
      out << p->value[i];
    }
    out << "\n";
  }
  out.flush();
  if (!out) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<ParsedTextCheckpoint> ReadTextCheckpoint(const std::string& path) {
  RPAS_ASSIGN_OR_RETURN(const std::string text, ReadWholeFile(path));
  TextCursor in(text);
  std::string_view line;
  if (!in.Line(&line) || line != kMagic) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an RPAS text checkpoint");
  }
  if (!in.Line(&line) || line.empty()) {
    return Status::InvalidArgument("'" + path +
                                   "' has no architecture signature");
  }
  ParsedTextCheckpoint parsed;
  parsed.signature = std::string(line);
  size_t count = 0;
  if (!in.Size(&count) || count == 0 || count > kCkptMaxTensors) {
    return Status::InvalidArgument("'" + path +
                                   "' has a missing or absurd tensor count");
  }
  parsed.tensors.reserve(count);
  for (size_t idx = 0; idx < count; ++idx) {
    size_t rows = 0;
    size_t cols = 0;
    if (!in.Size(&rows) || !in.Size(&cols) || rows == 0 || cols == 0 ||
        rows > kCkptMaxDim || cols > kCkptMaxDim ||
        rows * cols > kCkptMaxElements) {
      return Status::InvalidArgument(
          StrFormat("'%s': tensor %zu has a truncated or absurd shape",
                    path.c_str(), idx));
    }
    // Every value takes at least two bytes (a digit and a separator), so a
    // shape the rest of the file cannot hold is rejected before allocating.
    if (rows * cols > in.remaining() / 2) {
      return Status::InvalidArgument(StrFormat(
          "'%s': tensor %zu data is truncated", path.c_str(), idx));
    }
    tensor::Matrix m(rows, cols);
    double* values = m.data();
    for (size_t i = 0; i < m.size(); ++i) {
      if (!in.Double(&values[i])) {
        return Status::InvalidArgument(
            StrFormat("'%s': tensor %zu data is truncated or malformed",
                      path.c_str(), idx));
      }
    }
    parsed.tensors.push_back(std::move(m));
  }
  return parsed;
}

Status LoadParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params) {
  RPAS_ASSIGN_OR_RETURN(ParsedTextCheckpoint parsed, ReadTextCheckpoint(path));
  if (parsed.signature != signature) {
    return Status::InvalidArgument(
        "checkpoint signature mismatch: file has '" + parsed.signature +
        "', model expects '" + signature + "'");
  }
  if (parsed.tensors.size() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint holds %zu tensors, model has %zu",
                  parsed.tensors.size(), params.size()));
  }
  for (size_t idx = 0; idx < params.size(); ++idx) {
    const tensor::Matrix& m = parsed.tensors[idx];
    const tensor::Matrix& want = params[idx]->value;
    if (m.rows() != want.rows() || m.cols() != want.cols()) {
      return Status::InvalidArgument(StrFormat(
          "tensor %zu shape mismatch: file %zux%zu, model %zux%zu", idx,
          m.rows(), m.cols(), want.rows(), want.cols()));
    }
  }
  for (size_t idx = 0; idx < params.size(); ++idx) {
    params[idx]->value = std::move(parsed.tensors[idx]);
    params[idx]->ZeroGrad();
  }
  return Status::OK();
}

}  // namespace rpas::nn
