#ifndef RPAS_TENSOR_KERNELS_H_
#define RPAS_TENSOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "tensor/quant.h"

namespace rpas::tensor::kernels {

/// Runtime CPU dispatch levels for the vectorized kernel layer.
///
/// Contract (see DESIGN.md §10):
///  * kScalar is the bit-exact reference: it reproduces the pre-kernel-layer
///    loops operation for operation, so `RPAS_SIMD=scalar` reproduces
///    historical outputs bit-identically.
///  * kSse2 speeds up the linear-algebra kernels with 2-wide SSE2 mul/add in
///    the same per-element accumulation order and rounding as the scalar
///    path, so it is bit-identical to kScalar by construction.
///    Transcendentals route to the scalar implementations.
///  * kAvx2 uses 4-wide AVX2 with FMA plus polynomial vector
///    exp/log/tanh/sigmoid/softplus. Values may differ from the scalar
///    reference by a few ULP (property-tested bound); within the level every
///    kernel applies an identical per-element operation sequence regardless
///    of the batch row count, preserving the serve layer's
///    batched-vs-unbatched bit-identity.
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Dispatch level every kernel call uses by default. Resolved once on first
/// use: the highest level that is both compiled in and supported by the CPU,
/// capped by the RPAS_SIMD environment variable ("scalar" | "sse2" | "avx2")
/// for reproducibility. An RPAS_SIMD request above what the machine supports
/// falls back (with a warning) rather than crashing, so pinned configs stay
/// portable to older hardware.
SimdLevel ActiveLevel();

/// "scalar" | "sse2" | "avx2".
const char* LevelName(SimdLevel level);

/// True when the level's kernels are compiled into this binary.
bool LevelCompiled(SimdLevel level);

/// True when the level is compiled in and the CPU can execute it.
bool LevelSupported(SimdLevel level);

/// Forces the active dispatch level for the current process until restored.
/// Used by parity tests and kernel_bench to sweep levels; requests above
/// LevelSupported() are clamped. Thread-safe (atomic), but sweeping levels
/// while compute threads are mid-kernel gives mixed-level results — tests
/// switch levels only between operations.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

// ---------------------------------------------------------------------------
// GEMM: C (m x n, row-major) += A (m x k, row-major) * B (k x n).
//
// Every variant accumulates each output element over p = 0..k-1 in strictly
// increasing order, so a row's result depends only on that row's inputs —
// never on m — which is what makes batched and unbatched forwards
// bit-identical at any fixed dispatch level.
// ---------------------------------------------------------------------------

/// Doubles required for a packed copy of B (k x n): column panels of width
/// kPanelWidth, zero-padded in the column tail.
size_t PackedSize(size_t k, size_t n);
inline constexpr size_t kPanelWidth = 8;

/// Packs row-major B (k x n, leading dimension ldb) into panel-major layout:
/// panel j0 holds columns [j0, j0+8) contiguously per p. Shared read-only by
/// all worker threads of one GEMM call.
void PackB(size_t k, size_t n, const double* b, size_t ldb, double* packed);

/// C rows [r0, r1) += A * B using a packed B. Serial — callers parallelize
/// over row ranges. `level` must not be kScalar (the scalar reference path
/// uses GemmRowsScalar on the unpacked B).
void GemmPackedRows(SimdLevel level, size_t r0, size_t r1, size_t n, size_t k,
                    const double* a, size_t lda, const double* packed,
                    double* c, size_t ldc);

/// Row grain the parallel GEMM drivers hand to ParallelFor: the whole row
/// range (one chunk -> ParallelFor's serial path) when the product's
/// 2*m*n*k flop count is below the parallelization threshold, a fixed
/// 16-row grain otherwise. Depends only on the operand shape — never the
/// thread count — so the partition, and with it the result, is identical
/// for every RPAS_NUM_THREADS value. The fixed grain is even, so chunk
/// boundaries preserve the 2-row register tiling of the SIMD kernels.
size_t GemmRowGrain(size_t m, size_t n, size_t k);

/// Batch-row grain for the fused LSTM cell kernels. Same contract as
/// GemmRowGrain; the per-element cost weight is much higher because the
/// cell step is transcendental-bound, so smaller batches still fan out.
size_t LstmRowGrain(size_t batch, size_t hidden);

/// Full parallel GEMM driver: C (m x n, ldc) += A (m x k, lda) * B (k x n,
/// ldb), all row-major. Packs B into column panels once (non-scalar levels
/// with n >= kPanelWidth; the scalar level and skinny outputs use the
/// unpacked reference rows) and fans GemmRowGrain()-sized row chunks
/// across the shared thread pool. Each output row is written by exactly
/// one chunk with its k-accumulation in ascending order, so the result is
/// bit-identical to the serial row kernels at any thread count and any
/// dispatch level. Small products run on the calling thread.
void Gemm(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
          size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

/// The cache-blocked scalar reference over C rows [r0, r1): every element
/// starts from its C value and adds a(i,p) * b(p,j) for p = 0..k-1 in
/// ascending order, one multiply then one add per step — the legacy MatMul
/// loops' exact operation sequence. Rows run in groups of four with one
/// register accumulator per row, so the k-chains of a skinny product (the
/// n = 1 forecast heads) overlap instead of running back to back; the
/// grouping changes no element's operations, so the result does not depend
/// on it.
void GemmRowsScalar(size_t r0, size_t r1, size_t n, size_t k, const double* a,
                    size_t lda, const double* b, size_t ldb, double* c,
                    size_t ldc);

/// C (m x n) += A^T * B where A is (k x m) and B is (k x n), both row-major.
/// Accumulation order over p matches materializing A^T and running the
/// reference GEMM, so the scalar level is bit-identical to the old
/// Transpose+MatMul composition. Used by SolveLeastSquares (A^T A without the
/// O(n^2) transposed copy) and the autodiff MatMul backward (dB = A^T g).
/// Parallel over m (GemmRowGrain cost model); each output row keeps its
/// ascending-p accumulation, so results match the serial kernel bit-for-bit.
void GemmTN(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n) += A * B^T where A is (m x k) and B is (n x k), both row-major.
/// Used by the autodiff MatMul backward (dA = g B^T) without materializing
/// the transpose. Parallel over m (GemmRowGrain cost model); rows are
/// independent dot products, so results match the serial kernel bit-for-bit.
void GemmNT(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
            size_t lda, const double* b, size_t ldb, double* c, size_t ldc);

// ---------------------------------------------------------------------------
// Quantized-weight GEMM (the rpasq.v1 serving path).
// ---------------------------------------------------------------------------

/// C (m x n, ldc) += A (m x k, lda) * decode(Bq), where `b_payload` is the
/// serialized payload of a k x n row-major tensor in storage dtype
/// `b_dtype` (see tensor/quant.h for the per-dtype layouts). The payload is
/// decoded once per call into a thread-local fp64 scratch — fp16/fp32
/// convert-and-pack, q8 block dequant-on-the-fly — and then routed through
/// Gemm(), so every Gemm() guarantee carries over unchanged: each output
/// row depends only on its own A row and the (identical) decoded weights,
/// making batched and unbatched forwards bit-identical at any thread count
/// *within* a dtype. Decoded values are exact functions of the stored
/// bytes, so results are also identical across hosts and SIMD levels
/// modulo the documented Gemm() level contract.
void GemmQuant(SimdLevel level, size_t m, size_t n, size_t k, const double* a,
               size_t lda, DType b_dtype, const uint8_t* b_payload, double* c,
               size_t ldc);

// ---------------------------------------------------------------------------
// Vector primitives.
// ---------------------------------------------------------------------------

/// y += alpha * x.
void Axpy(SimdLevel level, size_t n, double alpha, const double* x, double* y);

/// Sum of x[i] * y[i]. The AVX2 level reduces with four partial accumulators;
/// parity with the scalar order is bounded by the standard forward-error
/// envelope (see kernel parity tests), not bit equality.
double Dot(SimdLevel level, size_t n, const double* x, const double* y);

/// Sum of x[i] (same reduction-order caveat as Dot).
double Sum(SimdLevel level, size_t n, const double* x);

// Elementwise transcendentals, out[i] = f(x[i]); out may alias x. The scalar
// implementations are the exact formulas the tape and Dense::Apply used
// before the kernel layer (std::tanh, the sign-split sigmoid, the stable
// softplus), so the scalar level stays bit-identical to history.
void EwTanh(SimdLevel level, size_t n, const double* x, double* out);
void EwSigmoid(SimdLevel level, size_t n, const double* x, double* out);
void EwSoftplus(SimdLevel level, size_t n, const double* x, double* out);
void EwRelu(SimdLevel level, size_t n, const double* x, double* out);

// ---------------------------------------------------------------------------
// Fused optimizer step.
// ---------------------------------------------------------------------------

/// Per-step Adam constants shared by every parameter tensor of one step.
struct AdamStep {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
  double bias_correction1 = 1.0;  ///< 1 - beta1^t
  double bias_correction2 = 1.0;  ///< 1 - beta2^t
  double grad_scale = 1.0;        ///< global-norm clip factor (1 = unclipped)
};

/// One Adam update over n parameters, fused with the gradient-clip scale
/// and gradient zeroing. For each i:
///   sq += grad[i] * grad[i]   (the unscaled gradient, in element order)
///   g = grad[i] * grad_scale, plus weight_decay * value[i] when nonzero
///   m[i] = beta1 * m[i] + (1 - beta1) * g
///   v[i] = beta2 * v[i] + (1 - beta2) * g * g
///   value[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + epsilon)
///   grad[i] = 0
/// and returns sq — nn::GradNorm's sum of squares, continued from the `sq`
/// passed in. Every level evaluates exactly these expressions with
/// separately rounded mul, add, div and sqrt. The AVX2 body computes the
/// two bias-correction quotients from a per-call reciprocal with one FMA
/// residual correction, which yields the correctly rounded quotient, and
/// IEEE div and sqrt are correctly rounded per lane, so every level is
/// bit-identical to the scalar reference. The scale multiply is exact when
/// grad_scale == 1.
double AdamUpdate(SimdLevel level, size_t n, const AdamStep& step,
                  double* value, double* grad, double* m, double* v,
                  double sq);

// ---------------------------------------------------------------------------
// Fused LSTM cell step (batch-major, gate order i, f, g, o — matching
// nn::LstmCell's fused 4H weight layout).
// ---------------------------------------------------------------------------

/// Forward: on entry `gates` (batch x 4H, row-major, contiguous) holds the
/// input projection x*W_x and `hh` (same shape) the recurrent projection
/// h*W_h; `bias` is the 1 x 4H gate bias. Each pre-activation is formed as
/// (gates + hh) + bias, two roundings in that order at every level, and
/// `gates` holds the activated gates (sigmoid i/f/o, tanh g) on exit. For
/// each row r, column j:
///   c_out = f * c_prev + i * g
///   h_out = o * tanh(c_out)
/// `tanh_c` (batch x hidden, contiguous) receives tanh(c_out) when non-null
/// (the training path saves it for the backward); pass nullptr in inference.
/// h_out/c_out/c_prev use explicit leading dimensions so the training path
/// can write straight into a [h | c] node value.
/// Parallel over the batch dimension (LstmRowGrain cost model): rows are
/// fully independent, so the fan-out is bit-identical to the serial step.
void LstmCellForward(SimdLevel level, size_t batch, size_t hidden,
                     double* gates, const double* hh, const double* bias,
                     const double* c_prev, size_t ldcp,
                     double* h_out, size_t ldh, double* c_out, size_t ldc,
                     double* tanh_c);

/// Backward through one cell step. Inputs: activated gates `act`
/// (batch x 4H), previous cell state, saved tanh(c_new), and incoming
/// gradients dh (w.r.t. h_out) and dc (w.r.t. c_out, the contribution flowing
/// in from step t+1). Outputs: `dgates` (batch x 4H pre-activation grads,
/// overwritten) and `dc_prev` (batch x hidden, overwritten).
/// Uses plain mul/add in the exact expression shapes of the old per-node
/// backward chain, so the SIMD levels agree with scalar bit-for-bit here.
/// Parallel over the batch dimension like the forward.
void LstmCellBackward(SimdLevel level, size_t batch, size_t hidden,
                      const double* act, const double* c_prev, size_t ldcp,
                      const double* tanh_c, const double* dh, size_t ldh,
                      const double* dc, size_t ldc, double* dgates,
                      double* dc_prev);

}  // namespace rpas::tensor::kernels

#endif  // RPAS_TENSOR_KERNELS_H_
