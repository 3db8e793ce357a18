#ifndef RPAS_NN_CHECKPOINT_H_
#define RPAS_NN_CHECKPOINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/result.h"
#include "tensor/matrix.h"

namespace rpas::nn {

/// Order-based parameter checkpointing. A checkpoint stores a signature
/// string (model type + architecture fingerprint) followed by every
/// parameter matrix in Params() order; loading verifies the signature and
/// every shape, so weights can only be restored into an identically
/// configured model.
///
/// Format (text, line-oriented):
///   RPASCKPT1
///   <signature>
///   <num_tensors>
///   <rows> <cols>
///   <row-major values, space separated>   (one line per tensor)
///   ...
///
/// Both loaders below share one parser. It reads the whole file with one
/// read and walks it with std::from_chars. It accepts what `istream >>`
/// accepts from the writer's layout: any run of whitespace between tokens
/// and a leading '+'. It rejects nan, inf and overflowing values, and it
/// reads a value that underflows as a signed zero, as strtod does. Every
/// number must be followed by whitespace, so a file cut inside its last
/// number reads as truncated rather than as a shorter number.

/// Sanity caps shared by the text and rpasq.v1 loaders and the rpasq
/// writer. They bound every allocation a loader makes from untrusted
/// fields long before any multiplication can overflow.
inline constexpr size_t kCkptMaxTensors = 4096;
inline constexpr size_t kCkptMaxDim = size_t{1} << 24;
inline constexpr size_t kCkptMaxElements = size_t{1} << 28;

/// Writes the parameters to `path`. Returns IoError on filesystem failure.
Status SaveParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params);

/// Restores parameters from `path`. Returns IoError when the file cannot be
/// read, and InvalidArgument when it is malformed or its signature, tensor
/// count, or any shape does not match `params`. The parameters change only
/// when every check passes; on error they are left untouched.
Status LoadParameters(const std::string& path, const std::string& signature,
                      const std::vector<autodiff::Parameter*>& params);

/// Model-free contents of a text checkpoint: the signature plus every
/// tensor in file order. Used by the rpas_quantize converter, which
/// re-encodes without knowing the architecture.
struct ParsedTextCheckpoint {
  std::string signature;
  std::vector<tensor::Matrix> tensors;
};

/// Parses the text checkpoint at `path` under the caps above. Returns
/// IoError when the file cannot be read and InvalidArgument when it is
/// malformed: bad magic, empty signature, zero or absurd counts or shapes,
/// truncation, or a bad number.
Result<ParsedTextCheckpoint> ReadTextCheckpoint(const std::string& path);

}  // namespace rpas::nn

#endif  // RPAS_NN_CHECKPOINT_H_
