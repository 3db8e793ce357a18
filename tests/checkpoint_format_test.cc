// Checkpoint loader hardening for both formats. rpasq.v1: structure-aware
// malformed-input corpus, round-trip / golden-file properties, and the
// fp16/q8 numeric contracts. Text (nn/checkpoint.h): the malformed-input
// corpus, bit-exactness against an istream oracle, and a golden file.
//
// The loaders treat checkpoint files as untrusted input. Every case in the
// malformed corpus below must produce a typed Status (InvalidArgument for
// malformed bytes, IoError for filesystem failures) — never a crash, UB,
// or a partially constructed checkpoint. The suite runs under ASan and
// TSan in CI; the corpus replay doubles as the deterministic fuzz corpus
// for tier-1 ctest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "nn/checkpoint.h"
#include "nn/qcheckpoint.h"
#include "tensor/quant.h"

#ifndef RPAS_TEST_DATA_DIR
#define RPAS_TEST_DATA_DIR "tests/data"
#endif

namespace rpas::nn {
namespace {

using tensor::DType;
using tensor::Matrix;

constexpr size_t kAlign = kQckptAlign;

// Field offsets in the fixed header (see qcheckpoint.h layout comment).
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffNumTensors = 16;
constexpr size_t kOffHeaderBytes = 20;
constexpr size_t kOffSignatureLen = 24;
constexpr size_t kFixedHeader = 28;

std::string TmpPath(const char* tag) {
  return StrFormat("/tmp/rpas_ckpt_fmt_%s_%ld.rpasq", tag,
                   static_cast<long>(::getpid()));
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  RPAS_CHECK(in.is_open()) << path;
  const std::streamoff size = in.tellg();
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  RPAS_CHECK(!in.fail());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  RPAS_CHECK(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  RPAS_CHECK(!out.fail());
}

uint32_t GetU32(const std::vector<uint8_t>& b, size_t off) {
  return static_cast<uint32_t>(b[off]) |
         (static_cast<uint32_t>(b[off + 1]) << 8) |
         (static_cast<uint32_t>(b[off + 2]) << 16) |
         (static_cast<uint32_t>(b[off + 3]) << 24);
}

void SetU16(std::vector<uint8_t>* b, size_t off, uint16_t v) {
  (*b)[off] = static_cast<uint8_t>(v & 0xFFu);
  (*b)[off + 1] = static_cast<uint8_t>(v >> 8);
}

void SetU32(std::vector<uint8_t>* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[off + static_cast<size_t>(i)] =
        static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

void SetU64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[off + static_cast<size_t>(i)] =
        static_cast<uint8_t>((v >> (8 * i)) & 0xFFu);
  }
}

/// Recomputes the header checksum after a deliberate header tamper, so the
/// corpus case reaches the specific validation it targets instead of
/// tripping the checksum first.
void FixHeaderCrc(std::vector<uint8_t>* b) {
  const size_t hb = GetU32(*b, kOffHeaderBytes);
  RPAS_CHECK(hb >= 4 && hb <= b->size());
  SetU32(b, hb - 4, Crc32(b->data(), hb - 4));
}

/// Writes `bytes` to a scratch file and attempts to map it.
Status MapBytes(const std::vector<uint8_t>& bytes) {
  const std::string path = TmpPath("case");
  WriteFileBytes(path, bytes);
  auto mapped = QuantizedCheckpoint::Map(path);
  std::remove(path.c_str());
  return mapped.ok() ? Status::OK() : mapped.status();
}

/// Deterministic fp64 values that are exact in every IEEE width we store
/// headers for (small rationals with power-of-two denominators), so golden
/// bytes are identical across platforms and compilers.
double RefValue(size_t i, size_t j) {
  return (static_cast<double>((i * 31 + j * 17) % 97) - 48.0) / 16.0;
}

Matrix RefMatrix(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = RefValue(i, j);
    }
  }
  return m;
}

/// The reference checkpoint every corruption case starts from: a q8 weight
/// (two rows of two q8 blocks each), an f16 weight, and an exact f64 bias.
struct Reference {
  std::string path;
  std::vector<uint8_t> bytes;
  Matrix w_q8;
  Matrix w_f16;
  Matrix bias;
};

const Reference& Ref() {
  static const Reference* ref = [] {
    auto* r = new Reference;
    r->path = TmpPath("ref");
    r->w_q8 = RefMatrix(2, 128);
    r->w_f16 = RefMatrix(4, 8);
    r->bias = RefMatrix(1, 6);
    const std::vector<QTensorSpec> specs{
        {"w_q8", DType::kQ8, &r->w_q8},
        {"w_f16", DType::kF16, &r->w_f16},
        {"bias", DType::kF64, &r->bias},
    };
    RPAS_CHECK(
        WriteQuantizedCheckpoint(r->path, "FMT test v1", specs).ok());
    r->bytes = ReadFileBytes(r->path);
    return r;
  }();
  return *ref;
}

/// Byte offset of tensor table entry `index` inside the reference header.
size_t EntryOffset(const std::vector<uint8_t>& b, size_t index) {
  size_t pos = kFixedHeader + GetU32(b, kOffSignatureLen);
  for (size_t i = 0; i < index; ++i) {
    const size_t name_len = b[pos] | (b[pos + 1] << 8);
    pos += 2 + name_len + 1 + 1 + 4 * 8 + 4;
  }
  return pos;
}

/// Field offsets within one table entry, relative to the entry start.
struct EntryFields {
  size_t name_len = 0;  ///< at entry start (u16)
  size_t dtype = 0;
  size_t reserved = 0;
  size_t rows = 0;
  size_t cols = 0;
  size_t offset = 0;
  size_t payload_bytes = 0;
  size_t crc = 0;
};

EntryFields FieldsAt(const std::vector<uint8_t>& b, size_t entry_off) {
  const size_t name_len = b[entry_off] | (b[entry_off + 1] << 8);
  EntryFields f;
  f.name_len = entry_off;
  f.dtype = entry_off + 2 + name_len;
  f.reserved = f.dtype + 1;
  f.rows = f.dtype + 2;
  f.cols = f.dtype + 10;
  f.offset = f.dtype + 18;
  f.payload_bytes = f.dtype + 26;
  f.crc = f.dtype + 34;
  return f;
}

void ExpectRejected(const std::vector<uint8_t>& bytes, const char* what,
                    const char* expect_substr) {
  const Status st = MapBytes(bytes);
  EXPECT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what << ": "
                                                     << st.ToString();
  EXPECT_NE(st.ToString().find(expect_substr), std::string::npos)
      << what << ": got '" << st.ToString() << "', wanted substring '"
      << expect_substr << "'";
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every case is a structure-aware corruption of the
// valid reference file and must be rejected with a typed InvalidArgument.
// ---------------------------------------------------------------------------

TEST(CkptFormatFuzz, ValidReferenceMaps) {
  const Status st = MapBytes(Ref().bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(CkptFormatFuzz, EmptyFile) {
  ExpectRejected({}, "empty file", "file is empty");
}

TEST(CkptFormatFuzz, TruncatedFixedHeader) {
  std::vector<uint8_t> b(Ref().bytes.begin(), Ref().bytes.begin() + 10);
  ExpectRejected(b, "10-byte file", "truncated fixed header");
}

TEST(CkptFormatFuzz, BadMagicFirstByte) {
  auto b = Ref().bytes;
  b[0] ^= 0xFF;
  ExpectRejected(b, "flipped magic[0]", "bad magic");
}

TEST(CkptFormatFuzz, BadMagicTrailingNul) {
  auto b = Ref().bytes;
  b[7] = 1;
  ExpectRejected(b, "nonzero magic[7]", "bad magic");
}

TEST(CkptFormatFuzz, FutureVersionRejected) {
  auto b = Ref().bytes;
  SetU32(&b, kOffVersion, 2);
  ExpectRejected(b, "version 2", "unsupported format version");
}

TEST(CkptFormatFuzz, VersionZeroRejected) {
  auto b = Ref().bytes;
  SetU32(&b, kOffVersion, 0);
  ExpectRejected(b, "version 0", "unsupported format version");
}

TEST(CkptFormatFuzz, UnknownFlagBitLow) {
  auto b = Ref().bytes;
  SetU32(&b, kOffFlags, 1);
  ExpectRejected(b, "flags=1", "unknown flag bits");
}

TEST(CkptFormatFuzz, UnknownFlagBitHigh) {
  auto b = Ref().bytes;
  SetU32(&b, kOffFlags, 0x80000000u);
  ExpectRejected(b, "flags=MSB", "unknown flag bits");
}

TEST(CkptFormatFuzz, ZeroTensorCount) {
  auto b = Ref().bytes;
  SetU32(&b, kOffNumTensors, 0);
  ExpectRejected(b, "0 tensors", "tensor count");
}

TEST(CkptFormatFuzz, AbsurdTensorCount) {
  auto b = Ref().bytes;
  SetU32(&b, kOffNumTensors, 1u << 20);
  ExpectRejected(b, "2^20 tensors", "tensor count");
}

TEST(CkptFormatFuzz, InflatedTensorCountReadsPadding) {
  auto b = Ref().bytes;
  // The phantom fourth entry starts in the zero padding, so its name_len
  // decodes as 0 and the name check rejects it before any overrun.
  SetU32(&b, kOffNumTensors, GetU32(b, kOffNumTensors) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "count+1", "missing or oversized name");
}

TEST(CkptFormatFuzz, TensorTableTruncatedMidEntry) {
  auto b = Ref().bytes;
  // Growing the last entry's name_len (still within the name cap) pushes
  // its fixed fields past the checksum trailer: the entry reader must stop
  // at the header region's edge, not read into the trailer or beyond.
  SetU16(&b, FieldsAt(b, EntryOffset(b, 2)).name_len, 30);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len grown to 30", "tensor table truncated");
}

TEST(CkptFormatFuzz, MisalignedHeaderBytes) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes, GetU32(b, kOffHeaderBytes) + 1);
  ExpectRejected(b, "header_bytes+1", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, HeaderBytesBeyondFile) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes,
         static_cast<uint32_t>((b.size() / kAlign + 2) * kAlign));
  ExpectRejected(b, "header beyond EOF", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, ZeroHeaderBytes) {
  auto b = Ref().bytes;
  SetU32(&b, kOffHeaderBytes, 0);
  ExpectRejected(b, "header_bytes=0", "misaligned or exceeds");
}

TEST(CkptFormatFuzz, ZeroSignatureLen) {
  auto b = Ref().bytes;
  SetU32(&b, kOffSignatureLen, 0);
  ExpectRejected(b, "sig_len=0", "signature length");
}

TEST(CkptFormatFuzz, OversizedSignatureLen) {
  auto b = Ref().bytes;
  SetU32(&b, kOffSignatureLen, 5000);
  ExpectRejected(b, "sig_len=5000", "signature length");
}

TEST(CkptFormatFuzz, SignatureOverrunsHeaderRegion) {
  auto b = Ref().bytes;
  // In-cap length that still overruns the region before the crc trailer.
  SetU32(&b, kOffSignatureLen, GetU32(b, kOffHeaderBytes) - 4);
  FixHeaderCrc(&b);
  ExpectRejected(b, "sig overrun", "signature overruns");
}

TEST(CkptFormatFuzz, HeaderChecksumMismatch) {
  auto b = Ref().bytes;
  b[kFixedHeader] ^= 0x01;  // first signature byte, crc left stale
  ExpectRejected(b, "flipped signature byte", "header checksum mismatch");
}

TEST(CkptFormatFuzz, HeaderChecksumFieldTampered) {
  auto b = Ref().bytes;
  b[GetU32(b, kOffHeaderBytes) - 2] ^= 0x40;
  ExpectRejected(b, "flipped crc byte", "header checksum mismatch");
}

TEST(CkptFormatFuzz, ZeroNameLen) {
  auto b = Ref().bytes;
  SetU16(&b, FieldsAt(b, EntryOffset(b, 0)).name_len, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len=0", "missing or oversized name");
}

TEST(CkptFormatFuzz, OversizedNameLen) {
  auto b = Ref().bytes;
  SetU16(&b, FieldsAt(b, EntryOffset(b, 0)).name_len, 300);
  FixHeaderCrc(&b);
  ExpectRejected(b, "name_len=300", "missing or oversized name");
}

TEST(CkptFormatFuzz, UnknownDTypeCode) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 0)).dtype] = 9;
  FixHeaderCrc(&b);
  ExpectRejected(b, "dtype=9", "unknown dtype code");
}

TEST(CkptFormatFuzz, ReservedByteNonzero) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 0)).reserved] = 1;
  FixHeaderCrc(&b);
  ExpectRejected(b, "reserved=1", "unknown dtype code");
}

TEST(CkptFormatFuzz, ZeroRows) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 1)).rows, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows=0", "empty or exceeds the format caps");
}

TEST(CkptFormatFuzz, DimExceedsCap) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 1)).rows, (uint64_t{1} << 24) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows=2^24+1", "exceeds the format caps");
}

TEST(CkptFormatFuzz, ElementCountExceedsCap) {
  auto b = Ref().bytes;
  // Each dim inside the per-dim cap; the product overflows the element cap
  // (and would overflow a 32-bit multiply if the loader used one).
  const EntryFields f = FieldsAt(b, EntryOffset(b, 1));
  SetU64(&b, f.rows, uint64_t{1} << 20);
  SetU64(&b, f.cols, uint64_t{1} << 20);
  FixHeaderCrc(&b);
  ExpectRejected(b, "2^40 elements", "exceeds the format caps");
}

TEST(CkptFormatFuzz, PayloadBytesShapeMismatch) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  SetU64(&b, f.payload_bytes,
         GetU32(b, f.payload_bytes) + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "payload_bytes+1", "requires");
}

TEST(CkptFormatFuzz, ShapeGrownWithoutPayload) {
  auto b = Ref().bytes;
  // Doubling the rows without touching payload_bytes must be caught by the
  // shape/payload consistency check, never by reading past the payload.
  const EntryFields f = FieldsAt(b, EntryOffset(b, 2));
  SetU64(&b, f.rows, 2);
  FixHeaderCrc(&b);
  ExpectRejected(b, "rows doubled", "requires");
}

TEST(CkptFormatFuzz, MisalignedPayloadOffset) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  SetU64(&b, f.offset, GetU32(b, f.offset) + 8);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset+8", "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetInsideHeader) {
  auto b = Ref().bytes;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset, 0);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset=0", "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetBeyondFile) {
  auto b = Ref().bytes;
  const uint64_t past = (b.size() / kAlign + 4) * kAlign;
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset, past);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset beyond EOF",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOffsetOverflowBait) {
  auto b = Ref().bytes;
  // offset + payload_bytes wraps uint64; the bounds check must be written
  // overflow-safe (payload_bytes > file - offset) to catch it.
  SetU64(&b, FieldsAt(b, EntryOffset(b, 0)).offset,
         ~uint64_t{0} - kAlign + 1);
  FixHeaderCrc(&b);
  ExpectRejected(b, "offset=2^64-64",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, PayloadOverrunsFileEnd) {
  auto b = Ref().bytes;
  // Consistent (shape, payload_bytes) pair that points past EOF: grow the
  // f64 bias to a row of 4096 values = 32 KiB, far beyond the small file.
  const EntryFields f = FieldsAt(b, EntryOffset(b, 2));
  SetU64(&b, f.cols, 4096);
  SetU64(&b, f.payload_bytes, 4096 * 8);
  FixHeaderCrc(&b);
  ExpectRejected(b, "payload past EOF",
                 "misaligned or out of the file's bounds");
}

TEST(CkptFormatFuzz, BitFlippedPayload) {
  auto b = Ref().bytes;
  const EntryFields f = FieldsAt(b, EntryOffset(b, 0));
  b[GetU32(b, f.offset)] ^= 0x10;
  ExpectRejected(b, "payload bit flip", "payload checksum mismatch");
}

TEST(CkptFormatFuzz, PayloadCrcFieldTampered) {
  auto b = Ref().bytes;
  b[FieldsAt(b, EntryOffset(b, 1)).crc] ^= 0x01;
  FixHeaderCrc(&b);
  ExpectRejected(b, "crc field flip", "payload checksum mismatch");
}

TEST(CkptFormatFuzz, NonzeroHeaderPadding) {
  auto b = Ref().bytes;
  // Last byte before the crc trailer is padding in the reference layout.
  const size_t hb = GetU32(b, kOffHeaderBytes);
  const size_t last_entry = EntryOffset(b, 2);
  const size_t table_end =
      last_entry + (b[last_entry] | (b[last_entry + 1] << 8)) + 2 + 38;
  ASSERT_LT(table_end, hb - 4) << "reference layout has no padding";
  b[hb - 5] = 0xAB;
  FixHeaderCrc(&b);
  ExpectRejected(b, "padding byte", "non-zero bytes in the header padding");
}

TEST(CkptFormatFuzz, TruncatedMidPayload) {
  auto b = Ref().bytes;
  b.resize(b.size() - 1);
  ExpectRejected(b, "EOF-1", "out of the file's bounds");
}

TEST(CkptFormatFuzz, TruncatedToHeaderOnly) {
  auto b = Ref().bytes;
  b.resize(GetU32(b, kOffHeaderBytes));
  ExpectRejected(b, "header only", "out of the file's bounds");
}

TEST(CkptFormatFuzz, MissingFileIsIoError) {
  auto mapped = QuantizedCheckpoint::Map("/nonexistent/rpas.rpasq");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
}

// Every truncation length must be rejected cleanly — no crash, no
// out-of-bounds read (ASan-checked), typed error only.
TEST(CkptFormatFuzz, EveryTruncationRejected) {
  const auto& ref = Ref().bytes;
  for (size_t len = 1; len < ref.size(); len += 3) {
    std::vector<uint8_t> b(ref.begin(), ref.begin() + static_cast<long>(len));
    const Status st = MapBytes(b);
    ASSERT_FALSE(st.ok()) << "truncation to " << len << " bytes accepted";
    ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

// Single-tensor file: every byte is covered by the header checksum, the
// checksum fields themselves, or the payload checksum, so EVERY single-bit
// flip anywhere in the file must be rejected.
TEST(CkptFormatFuzz, EverySingleBitFlipRejected) {
  const std::string path = TmpPath("flip");
  const Matrix w = RefMatrix(3, 64);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "flip test", specs).ok());
  const std::vector<uint8_t> ref = ReadFileBytes(path);
  std::remove(path.c_str());
  ASSERT_TRUE(MapBytes(ref).ok());
  for (size_t i = 0; i < ref.size(); ++i) {
    std::vector<uint8_t> b = ref;
    b[i] ^= static_cast<uint8_t>(1u << (i % 8));
    const Status st = MapBytes(b);
    ASSERT_FALSE(st.ok()) << "bit flip at byte " << i << " accepted";
    ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

// Deterministic random-mutation corpus (the fuzz replay for tier-1 ctest):
// clusters of random byte mutations across the whole file. Any outcome is
// acceptable except a crash or an untyped error; a mutant that still maps
// must dequantize cleanly (no partially-valid object).
TEST(CkptFormatFuzz, RandomMutationCorpusReplay) {
  const auto& ref = Ref().bytes;
  Rng rng(0xF422u);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> b = ref;
    const int mutations = 1 + static_cast<int>(rng.Uniform() * 8.0);
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.Uniform() * static_cast<double>(b.size()));
      b[pos] = static_cast<uint8_t>(rng.Uniform() * 256.0);
    }
    const std::string path = TmpPath("mut");
    WriteFileBytes(path, b);
    auto mapped = QuantizedCheckpoint::Map(path);
    if (mapped.ok()) {
      // Mutations may land in dead bytes (inter-payload alignment pad);
      // the mapped object must still be fully usable.
      for (size_t i = 0; i < (*mapped)->num_tensors(); ++i) {
        Matrix decoded;
        ASSERT_TRUE(
            tensor::DequantizeToMatrix((*mapped)->tensor(i).view, &decoded)
                .ok());
      }
    } else {
      ASSERT_EQ(mapped.status().code(), StatusCode::kInvalidArgument)
          << mapped.status().ToString();
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Round-trip and golden-file properties.
// ---------------------------------------------------------------------------

TEST(CkptFormatRoundTrip, SerializationIsDeterministic) {
  const std::string a = TmpPath("det_a");
  const std::string b = TmpPath("det_b");
  const Matrix w = RefMatrix(5, 70);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(a, "det", specs).ok());
  ASSERT_TRUE(WriteQuantizedCheckpoint(b, "det", specs).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CkptFormatRoundTrip, WriterRejectsMalformedSpecs) {
  const std::string path = TmpPath("w");
  const Matrix w = RefMatrix(2, 2);
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "", {{"w", DType::kF64, &w}})
                   .ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "sig", {}).ok());
  EXPECT_FALSE(
      WriteQuantizedCheckpoint(path, "sig", {{"", DType::kF64, &w}}).ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(path, "sig",
                                        {{"w", DType::kF64, nullptr}})
                   .ok());
  EXPECT_FALSE(WriteQuantizedCheckpoint(
                   path, "sig", {{std::string(300, 'n'), DType::kF64, &w}})
                   .ok());
}

TEST(CkptFormatRoundTrip, PerDtypeRoundTripWithinBounds) {
  Rng rng(31337);
  Matrix w(6, 96);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 4.0 * rng.Normal();
  }
  for (DType dtype :
       {DType::kF64, DType::kF32, DType::kF16, DType::kQ8}) {
    const std::string path = TmpPath("rt");
    const std::vector<QTensorSpec> specs{{"w", dtype, &w}};
    ASSERT_TRUE(WriteQuantizedCheckpoint(path, "rt", specs).ok());
    auto mapped = QuantizedCheckpoint::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    const QTensor* t = (*mapped)->Find("w");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->view.dtype, dtype);
    Matrix decoded;
    ASSERT_TRUE(tensor::DequantizeToMatrix(t->view, &decoded).ok());
    ASSERT_EQ(decoded.rows(), w.rows());
    ASSERT_EQ(decoded.cols(), w.cols());
    // The decode must agree bit-for-bit with a direct encode+decode round
    // trip (the dequant GEMM path and the checkpoint path see identical
    // numbers), and the error vs fp64 must respect the dtype's bound.
    std::vector<uint8_t> payload(tensor::PayloadBytes(dtype, w.size()));
    std::vector<double> direct(w.size());
    tensor::EncodePayload(dtype, w.data(), w.size(), payload.data());
    tensor::DecodePayload(dtype, payload.data(), w.size(), direct.data());
    double max_err = 0.0;
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(decoded[i], direct[i]) << "index " << i;
      max_err = std::max(max_err, std::fabs(decoded[i] - w[i]));
    }
    switch (dtype) {
      case DType::kF64:
        EXPECT_EQ(max_err, 0.0);
        break;
      case DType::kF32:
        EXPECT_LE(max_err, 20.0 * 0x1p-24);
        break;
      case DType::kF16:
        EXPECT_LE(max_err, 20.0 * 0x1p-11);
        break;
      case DType::kQ8:
        // Affine 8-bit: error bounded by half a quantization step of the
        // worst 64-value block; 20 covers the value range comfortably.
        EXPECT_LE(max_err, 40.0 / 255.0);
        break;
    }
    EXPECT_EQ(max_err, tensor::MaxAbsError(dtype, w.data(), w.size()));
    std::remove(path.c_str());
  }
}

TEST(CkptFormatRoundTrip, F64ToF32RoundTripErrorBounded) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = 200.0 * (rng.Uniform() - 0.5);
    const double rt = static_cast<double>(static_cast<float>(x));
    EXPECT_LE(std::fabs(x - rt), std::fabs(x) * 0x1p-24 + 1e-300);
  }
}

TEST(CkptFormatRoundTrip, F16AllBitPatternsRoundTrip) {
  // decode(bits) -> encode must reproduce every canonical finite pattern
  // and both infinities exactly; NaNs must stay NaN.
  for (uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = tensor::F16BitsToF32(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(
          tensor::F16BitsToF32(tensor::F32ToF16Bits(f))));
      continue;
    }
    EXPECT_EQ(tensor::F32ToF16Bits(f), h) << "pattern 0x" << std::hex
                                          << bits;
  }
}

TEST(CkptFormatRoundTrip, Q8ConstantBlockIsExact) {
  Matrix w(1, 128);
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 3.25;
  }
  std::vector<uint8_t> payload(tensor::PayloadBytes(DType::kQ8, w.size()));
  std::vector<double> decoded(w.size());
  tensor::EncodePayload(DType::kQ8, w.data(), w.size(), payload.data());
  tensor::DecodePayload(DType::kQ8, payload.data(), w.size(),
                        decoded.data());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(decoded[i], 3.25);
  }
}

// A minimal valid file assembled byte-by-byte from the documented layout —
// decoding it proves the on-disk format is the literal little-endian byte
// sequence the spec prescribes, independent of host integer layout.
TEST(CkptFormatGolden, HandAssembledLittleEndianFileDecodes) {
  // One f64 tensor "w" of shape 1x2 with values {1.5, -2.0}, signature "s".
  // header: 28 fixed + 1 sig + (2+1+1+1+32+4 = 41) entry + pad + crc = 128.
  std::vector<uint8_t> b(128 + 16, 0);
  const uint8_t magic[8] = {'R', 'P', 'A', 'S', 'Q', '1', 0, 0};
  std::memcpy(b.data(), magic, 8);
  SetU32(&b, 8, 1);    // version
  SetU32(&b, 12, 0);   // flags
  SetU32(&b, 16, 1);   // num_tensors
  SetU32(&b, 20, 128); // header_bytes
  SetU32(&b, 24, 1);   // signature_len
  b[28] = 's';
  size_t e = 29;
  SetU16(&b, e, 1);  // name_len
  b[e + 2] = 'w';
  b[e + 3] = 0;  // dtype f64
  b[e + 4] = 0;  // reserved
  SetU64(&b, e + 5, 1);    // rows
  SetU64(&b, e + 13, 2);   // cols
  SetU64(&b, e + 21, 128); // offset
  SetU64(&b, e + 29, 16);  // payload_bytes
  // payload: two little-endian IEEE doubles.
  SetU64(&b, 128, 0x3FF8000000000000ull);  // 1.5
  SetU64(&b, 136, 0xC000000000000000ull);  // -2.0
  SetU32(&b, e + 37, Crc32(b.data() + 128, 16));
  SetU32(&b, 124, Crc32(b.data(), 124));

  const std::string path = TmpPath("hand");
  WriteFileBytes(path, b);
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->signature(), "s");
  ASSERT_EQ((*mapped)->num_tensors(), 1u);
  Matrix decoded;
  ASSERT_TRUE(
      tensor::DequantizeToMatrix((*mapped)->tensor(0).view, &decoded).ok());
  EXPECT_EQ(decoded(0, 0), 1.5);
  EXPECT_EQ(decoded(0, 1), -2.0);
  std::remove(path.c_str());
}

/// The golden reference tensors: one quantizable weight and one exact
/// bias, built from platform-independent exact values.
std::vector<QTensorSpec> GoldenSpecs(const Matrix& w, const Matrix& bias,
                                     DType dtype) {
  return {{"w", dtype, &w}, {"b", DType::kF64, &bias}};
}

// Golden files committed under tests/data/ pin the byte format: any writer
// change that alters serialization breaks these, forcing a deliberate
// format-version decision. Regenerate with RPAS_REGEN_GOLDEN=1 (and commit
// the new bytes plus a version bump) only when the change is intentional.
TEST(CkptFormatGolden, GoldenFilesRoundTripByteIdentical) {
  const Matrix w = RefMatrix(8, 64);
  const Matrix bias = RefMatrix(1, 8);
  for (DType dtype :
       {DType::kF64, DType::kF32, DType::kF16, DType::kQ8}) {
    const std::string golden_path = StrFormat(
        "%s/golden_%s.rpasq", RPAS_TEST_DATA_DIR, tensor::DTypeName(dtype));
    const std::string signature =
        StrFormat("golden rpasq.v1 %s", tensor::DTypeName(dtype));
    if (std::getenv("RPAS_REGEN_GOLDEN") != nullptr) {
      ASSERT_TRUE(WriteQuantizedCheckpoint(golden_path, signature,
                                           GoldenSpecs(w, bias, dtype))
                      .ok());
    }
    // Re-serialize the same tensors and compare byte-for-byte.
    const std::string fresh = TmpPath("golden");
    ASSERT_TRUE(WriteQuantizedCheckpoint(fresh, signature,
                                         GoldenSpecs(w, bias, dtype))
                    .ok());
    const std::vector<uint8_t> golden_bytes = ReadFileBytes(golden_path);
    EXPECT_EQ(ReadFileBytes(fresh), golden_bytes)
        << "serialization of " << tensor::DTypeName(dtype)
        << " drifted from the committed golden file";
    std::remove(fresh.c_str());

    // The committed bytes must validate and decode to the reference
    // values within the dtype bound.
    auto mapped = QuantizedCheckpoint::Map(golden_path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->signature(), signature);
    ASSERT_EQ((*mapped)->num_tensors(), 2u);
    Matrix decoded;
    ASSERT_TRUE(
        tensor::DequantizeToMatrix((*mapped)->tensor(0).view, &decoded)
            .ok());
    const double bound = tensor::MaxAbsError(dtype, w.data(), w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      ASSERT_LE(std::fabs(decoded[i] - w[i]), bound + 1e-12);
    }
    Matrix decoded_bias;
    ASSERT_TRUE(tensor::DequantizeToMatrix((*mapped)->tensor(1).view,
                                           &decoded_bias)
                    .ok());
    for (size_t i = 0; i < bias.size(); ++i) {
      ASSERT_EQ(decoded_bias[i], bias[i]);  // f64 sections decode exactly
    }
  }
}

TEST(CkptFormatGolden, MappedCheckpointReportsMappedBytes) {
  const std::string path = TmpPath("acct");
  const Matrix w = RefMatrix(4, 64);
  const std::vector<QTensorSpec> specs{{"w", DType::kQ8, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "acct", specs).ok());
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_GT((*mapped)->file_bytes(), 0u);
  EXPECT_EQ((*mapped)->mapped_bytes() + (*mapped)->heap_bytes(),
            (*mapped)->file_bytes());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE((*mapped)->is_mapped());
  EXPECT_EQ((*mapped)->mapped_bytes(), (*mapped)->file_bytes());
#endif
  std::remove(path.c_str());
}

TEST(CkptFormatGolden, AssignDequantizedChecksShape) {
  const std::string path = TmpPath("assign");
  const Matrix w = RefMatrix(2, 3);
  const std::vector<QTensorSpec> specs{{"w", DType::kF64, &w}};
  ASSERT_TRUE(WriteQuantizedCheckpoint(path, "assign", specs).ok());
  auto mapped = QuantizedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok());
  autodiff::Parameter wrong(Matrix(3, 2));
  const Matrix before = wrong.value;
  EXPECT_FALSE(AssignDequantized((*mapped)->tensor(0), &wrong).ok());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(wrong.value[i], before[i]);  // untouched on error
  }
  autodiff::Parameter right(Matrix(2, 3));
  ASSERT_TRUE(AssignDequantized((*mapped)->tensor(0), &right).ok());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(right.value[i], w[i]);
  }
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// Text checkpoints (nn/checkpoint.h): the raw round trip and mismatch
// cases, the malformed-input corpus, bit-exactness against an istream
// oracle, and the writer's golden file.
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rpas_ckpt_" + std::to_string(::getpid()) + ".txt");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }
  std::filesystem::path path_;
};

TEST_F(CheckpointTest, RawRoundTrip) {
  Rng rng(7);
  autodiff::Parameter a(tensor::Matrix(3, 4));
  autodiff::Parameter b(tensor::Matrix(1, 2));
  for (size_t i = 0; i < a.value.size(); ++i) {
    a.value[i] = rng.Normal();
  }
  b.value(0, 0) = 1.5;
  b.value(0, 1) = -2.25;
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a, &b}).ok());

  autodiff::Parameter a2(tensor::Matrix(3, 4));
  autodiff::Parameter b2(tensor::Matrix(1, 2));
  ASSERT_TRUE(nn::LoadParameters(path(), "sig", {&a2, &b2}).ok());
  for (size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.value[i], a.value[i]);
  }
  EXPECT_DOUBLE_EQ(b2.value(0, 1), -2.25);
}

TEST_F(CheckpointTest, SignatureMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  ASSERT_TRUE(nn::SaveParameters(path(), "model-v1", {&a}).ok());
  EXPECT_EQ(nn::LoadParameters(path(), "model-v2", {&a}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, ShapeMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(2, 2));
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a}).ok());
  autodiff::Parameter wrong(tensor::Matrix(2, 3));
  EXPECT_EQ(nn::LoadParameters(path(), "sig", {&wrong}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, CountMismatchRejected) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  ASSERT_TRUE(nn::SaveParameters(path(), "sig", {&a}).ok());
  autodiff::Parameter b(tensor::Matrix(1, 1));
  EXPECT_EQ(nn::LoadParameters(path(), "sig", {&a, &b}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, MissingFileIsIoError) {
  autodiff::Parameter a(tensor::Matrix(1, 1));
  EXPECT_EQ(nn::LoadParameters("/nonexistent/ckpt", "sig", {&a}).code(),
            StatusCode::kIoError);
}

constexpr char kTextSig[] = "text fuzz v1";
constexpr double kSentinel = 7.0;

/// The valid text checkpoint every text corruption case starts from: a 2x3
/// weight and a 1x2 bias.
const std::string& TextRef() {
  static const std::string* text = [] {
    autodiff::Parameter w(Matrix{{0.1, -2.5, 3e-5}, {1e10, -0.0, 42.0}});
    autodiff::Parameter b(Matrix{{1.5, -2.25}});
    const std::string path = TmpPath("text_ref");
    RPAS_CHECK(SaveParameters(path, kTextSig, {&w, &b}).ok());
    const std::vector<uint8_t> bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return new std::string(bytes.begin(), bytes.end());
  }();
  return *text;
}

std::string Replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const size_t pos = text.find(from);
  RPAS_CHECK(pos != std::string::npos) << from;
  return text.replace(pos, from.size(), to);
}

std::string WriteTextCase(const std::string& text) {
  const std::string path = TmpPath("text_case");
  WriteFileBytes(path, std::vector<uint8_t>(text.begin(), text.end()));
  return path;
}

/// Loads `text` into sentinel-filled parameters shaped like TextRef()'s and
/// expects a typed InvalidArgument that leaves every value and gradient
/// untouched.
void ExpectLoadRejected(const std::string& text, const std::string& what) {
  const std::string path = WriteTextCase(text);
  autodiff::Parameter w(Matrix(2, 3, kSentinel));
  autodiff::Parameter b(Matrix(1, 2, kSentinel));
  w.grad.Fill(kSentinel);
  b.grad.Fill(kSentinel);
  const Status st = LoadParameters(path, kTextSig, {&w, &b});
  std::remove(path.c_str());
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument)
      << what << ": " << st.ToString();
  for (const autodiff::Parameter* p : {&w, &b}) {
    for (size_t i = 0; i < p->size(); ++i) {
      ASSERT_EQ(p->value[i], kSentinel) << what << ": value overwritten";
      ASSERT_EQ(p->grad[i], kSentinel) << what << ": gradient reset";
    }
  }
}

/// ExpectLoadRejected, plus the model-free reader must reject it too.
void ExpectMalformedText(const std::string& text, const std::string& what) {
  ExpectLoadRejected(text, what);
  const std::string path = WriteTextCase(text);
  const Result<ParsedTextCheckpoint> parsed = ReadTextCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_FALSE(parsed.ok()) << what << ": model-free reader accepted it";
  ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << what << ": " << parsed.status().ToString();
}

/// Bit pattern of a double, so -0.0 and 0.0 compare unequal.
uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(CkptTextFuzz, ReferenceLoads) {
  const std::string path = WriteTextCase(TextRef());
  autodiff::Parameter w(Matrix(2, 3, kSentinel));
  autodiff::Parameter b(Matrix(1, 2, kSentinel));
  w.grad.Fill(kSentinel);
  ASSERT_TRUE(LoadParameters(path, kTextSig, {&w, &b}).ok());
  std::remove(path.c_str());
  EXPECT_EQ(w.value(1, 0), 1e10);
  EXPECT_EQ(Bits(w.value(1, 1)), Bits(-0.0));
  EXPECT_EQ(b.value(0, 1), -2.25);
  EXPECT_EQ(w.grad[0], 0.0);  // gradients reset on success
}

TEST(CkptTextFuzz, EmptyFile) { ExpectMalformedText("", "empty file"); }

TEST(CkptTextFuzz, BadMagic) {
  ExpectMalformedText(Replaced(TextRef(), "RPASCKPT1", "RPASCKPT2"),
                      "bad magic");
  ExpectMalformedText(Replaced(TextRef(), "RPASCKPT1\n", "RPASCKPT1 \n"),
                      "magic with trailing blank");
}

TEST(CkptTextFuzz, MissingSignature) {
  ExpectMalformedText("RPASCKPT1\n", "magic only");
  ExpectMalformedText(Replaced(TextRef(), kTextSig, ""), "empty signature");
}

TEST(CkptTextFuzz, SignatureMismatch) {
  ExpectLoadRejected(Replaced(TextRef(), kTextSig, "text fuzz v2"),
                     "other signature");
  ExpectLoadRejected(Replaced(TextRef(), kTextSig, "text fuzz v1\r"),
                     "signature with CR");
}

TEST(CkptTextFuzz, TensorCountMismatch) {
  autodiff::Parameter w(Matrix(2, 3, 1.0));
  autodiff::Parameter b(Matrix(1, 2, 1.0));
  const std::string path = TmpPath("text_count");
  for (const std::vector<autodiff::Parameter*>& saved :
       {std::vector<autodiff::Parameter*>{&w},
        std::vector<autodiff::Parameter*>{&w, &b, &b}}) {
    ASSERT_TRUE(SaveParameters(path, kTextSig, saved).ok());
    const std::vector<uint8_t> bytes = ReadFileBytes(path);
    ExpectLoadRejected(std::string(bytes.begin(), bytes.end()),
                       StrFormat("%zu tensors", saved.size()));
  }
  std::remove(path.c_str());
}

TEST(CkptTextFuzz, ShapeMismatch) {
  // The first tensor matches; the second does not, and the first must not
  // have been written when the load fails.
  ExpectLoadRejected(Replaced(TextRef(), "\n1 2\n", "\n2 1\n"),
                     "transposed second tensor");
  ExpectLoadRejected(Replaced(TextRef(), "\n2 3\n", "\n3 2\n"),
                     "transposed first tensor");
}

TEST(CkptTextFuzz, AbsurdTensorCounts) {
  for (const char* count :
       {"0", "4097", "-1", "+-2", "18446744073709551616", "2.0", "two"}) {
    ExpectMalformedText(Replaced(TextRef(), "\n2\n2 3\n",
                                 std::string("\n") + count + "\n2 3\n"),
                        std::string("count ") + count);
  }
}

TEST(CkptTextFuzz, AbsurdShapes) {
  // Zero, over the per-dimension cap, over the element cap with both
  // dimensions in range, and in range but larger than the file can hold
  // (rejected before the matrix is allocated).
  for (const char* shape :
       {"0 3", "2 0", "16777217 1", "16385 16384", "4096 4096", "2 -3",
        "2 3.0", "2"}) {
    ExpectMalformedText(
        Replaced(TextRef(), "\n2 3\n", std::string("\n") + shape + "\n"),
        std::string("shape ") + shape);
  }
}

TEST(CkptTextFuzz, BadValueTokens) {
  for (const char* token :
       {"nan", "-nan", "inf", "-inf", "infinity", "1e400", "-1e400",
        "1e99999", "0x1p3", "1.5abc", "1e", "+-1", "++1", "--1", "-", "+",
        ".", "e5", "1e5.5", "1,5"}) {
    ExpectMalformedText(Replaced(TextRef(), "42", token),
                        std::string("token ") + token);
  }
}

// Every proper prefix of a valid file must be rejected. A file cut inside
// its last number reads as truncated rather than as a shorter number,
// because every number must be followed by whitespace.
TEST(CkptTextFuzz, EveryTruncationRejected) {
  const std::string& ref = TextRef();
  for (size_t len = 0; len < ref.size(); ++len) {
    ExpectMalformedText(ref.substr(0, len),
                        StrFormat("truncation to %zu bytes", len));
  }
}

// Layouts the writer never emits but `istream >>` accepted: a leading '+',
// any run of whitespace between tokens, values split across lines, and a
// value that underflows (read as a signed zero, as strtod returns it).
TEST(CkptTextFuzz, IstreamLayoutsAccepted) {
  const std::string text =
      "RPASCKPT1\ntext fuzz v1\n  +2\r\n\t2\v 3\n"
      "+0.1\t\t-2.5\n\n3e-5 +1E10\f-0 1e-400\n"
      "1 +2 \n  1.5 -1e-400\n";
  const std::string path = WriteTextCase(text);
  autodiff::Parameter w(Matrix(2, 3, kSentinel));
  autodiff::Parameter b(Matrix(1, 2, kSentinel));
  const Status st = LoadParameters(path, kTextSig, {&w, &b});
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  const double want_w[] = {0.1, -2.5, 3e-5, 1e10, -0.0, 0.0};
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(Bits(w.value[i]), Bits(want_w[i])) << i;
  }
  EXPECT_EQ(b.value[0], 1.5);
  EXPECT_EQ(Bits(b.value[1]), Bits(-0.0));

  // The oracle agrees on the underflowing tokens.
  std::istringstream oracle("1e-400 -1e-400");
  double pos = 1.0;
  double neg = 1.0;
  ASSERT_TRUE(oracle >> pos >> neg);
  EXPECT_EQ(Bits(pos), Bits(0.0));
  EXPECT_EQ(Bits(neg), Bits(-0.0));
}

TEST(CkptTextFuzz, MissingFileIsIoError) {
  EXPECT_EQ(ReadTextCheckpoint("/nonexistent/ckpt.txt").status().code(),
            StatusCode::kIoError);
}

// SaveParameters -> LoadParameters reproduces every value bit for bit,
// including the edges of the double range and 1-ulp neighbours of values
// whose 17-digit forms differ only in the last digit.
TEST(CkptTextRoundTrip, EdgeValuesAreBitExact) {
  using Lim = std::numeric_limits<double>;
  std::vector<double> values = {
      Lim::denorm_min(), -Lim::denorm_min(), Lim::min() - Lim::denorm_min(),
      Lim::min(),        -Lim::min(),        Lim::max(),
      -Lim::max(),       0.0,                -0.0,
      1.0,               Lim::epsilon()};
  for (double x : {0.1, 1.0 / 3.0, M_PI, 1e-300, 123456.789, 2.5e-320,
                   9007199254740993.0, 1e308}) {
    values.push_back(x);
    values.push_back(std::nextafter(x, Lim::infinity()));
    values.push_back(std::nextafter(x, -Lim::infinity()));
    values.push_back(-std::nextafter(x, Lim::infinity()));
  }
  autodiff::Parameter saved(Matrix(1, values.size()));
  std::memcpy(saved.value.data(), values.data(),
              values.size() * sizeof(double));
  const std::string path = TmpPath("text_edges");
  ASSERT_TRUE(SaveParameters(path, "edges", {&saved}).ok());
  autodiff::Parameter loaded(Matrix(1, values.size(), kSentinel));
  ASSERT_TRUE(LoadParameters(path, "edges", {&loaded}).ok());
  std::remove(path.c_str());
  EXPECT_EQ(std::memcmp(loaded.value.data(), values.data(),
                        values.size() * sizeof(double)),
            0);
}

// The parser against `std::istringstream >> double` (the reader it
// replaced, kept here as the oracle) on 100k doubles printed at precision
// 17: half uniform random bit patterns, which reach every exponent
// including subnormals, half Gaussian values at mixed scales.
TEST(CkptTextRoundTrip, ParserMatchesIstreamOracle) {
  constexpr size_t kRows = 100;
  constexpr size_t kCols = 1000;
  Rng rng(0x7E57u);
  autodiff::Parameter saved(Matrix(kRows, kCols));
  for (size_t i = 0; i < saved.size(); ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      do {
        const uint64_t bits = rng.NextUint64();
        std::memcpy(&v, &bits, sizeof(v));
      } while (!std::isfinite(v));
    } else {
      v = rng.Normal() * std::pow(10.0, rng.Uniform(-12.0, 12.0));
    }
    saved.value[i] = v;
  }
  const std::string path = TmpPath("text_oracle");
  ASSERT_TRUE(SaveParameters(path, "oracle", {&saved}).ok());
  const std::vector<uint8_t> bytes = ReadFileBytes(path);
  const Result<ParsedTextCheckpoint> parsed = ReadTextCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->tensors.size(), 1u);
  const Matrix& got = parsed->tensors[0];
  ASSERT_EQ(got.size(), kRows * kCols);

  std::istringstream oracle(std::string(bytes.begin(), bytes.end()));
  std::string line;
  size_t count = 0;
  size_t rows = 0;
  size_t cols = 0;
  ASSERT_TRUE(std::getline(oracle, line) && std::getline(oracle, line));
  ASSERT_TRUE(oracle >> count >> rows >> cols);
  for (size_t i = 0; i < got.size(); ++i) {
    double want = 0.0;
    ASSERT_TRUE(oracle >> want) << i;
    ASSERT_EQ(Bits(got[i]), Bits(want)) << "value " << i;
    ASSERT_EQ(Bits(got[i]), Bits(saved.value[i])) << "value " << i;
  }
}

/// The parameters pinned by tests/data/golden_text.ckpt: a reference matrix
/// and a row of edge values.
std::vector<autodiff::Parameter> GoldenTextParams() {
  using Lim = std::numeric_limits<double>;
  std::vector<autodiff::Parameter> params;
  params.emplace_back(RefMatrix(3, 5));
  params.emplace_back(Matrix{{Lim::denorm_min(), Lim::min(), Lim::max(),
                              -0.0, 0.1, 1.0 / 3.0, -M_PI, 1e-300}});
  return params;
}

// Pins the writer's bytes and the loader's bits. Regenerate with
// RPAS_REGEN_GOLDEN=1 only for a deliberate format change.
TEST(CkptTextGolden, GoldenFileRoundTripsByteIdentical) {
  const std::string golden_path =
      StrFormat("%s/golden_text.ckpt", RPAS_TEST_DATA_DIR);
  std::vector<autodiff::Parameter> params = GoldenTextParams();
  std::vector<autodiff::Parameter*> ptrs;
  for (autodiff::Parameter& p : params) {
    ptrs.push_back(&p);
  }
  if (std::getenv("RPAS_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(SaveParameters(golden_path, "golden text v1", ptrs).ok());
  }
  const std::string fresh = TmpPath("text_golden");
  ASSERT_TRUE(SaveParameters(fresh, "golden text v1", ptrs).ok());
  EXPECT_EQ(ReadFileBytes(fresh), ReadFileBytes(golden_path))
      << "SaveParameters output drifted from the committed golden file";
  std::remove(fresh.c_str());

  std::vector<autodiff::Parameter> loaded;
  std::vector<autodiff::Parameter*> loaded_ptrs;
  for (const autodiff::Parameter& p : params) {
    loaded.emplace_back(Matrix(p.value.rows(), p.value.cols(), kSentinel));
  }
  for (autodiff::Parameter& p : loaded) {
    loaded_ptrs.push_back(&p);
  }
  ASSERT_TRUE(LoadParameters(golden_path, "golden text v1", loaded_ptrs).ok());
  for (size_t t = 0; t < params.size(); ++t) {
    EXPECT_EQ(std::memcmp(loaded[t].value.data(), params[t].value.data(),
                          params[t].size() * sizeof(double)),
              0)
        << "tensor " << t;
  }
}

}  // namespace
}  // namespace rpas::nn
