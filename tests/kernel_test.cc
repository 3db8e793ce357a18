#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/tape.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/trainer.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace rpas::tensor::kernels {
namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Maps a double's bit pattern to a monotonically ordered signed integer so
/// ULP distances can be computed by subtraction (-0.0 and +0.0 map to the
/// same key).
int64_t OrderedBits(double x) {
  int64_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i >= 0 ? i : std::numeric_limits<int64_t>::min() - i;
}

uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<uint64_t>::max();
  }
  const int64_t x = OrderedBits(a);
  const int64_t y = OrderedBits(b);
  return x >= y ? static_cast<uint64_t>(x) - static_cast<uint64_t>(y)
                : static_cast<uint64_t>(y) - static_cast<uint64_t>(x);
}

/// Every level that can actually execute on this machine, scalar first.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (LevelSupported(l)) {
      levels.push_back(l);
    }
  }
  return levels;
}

void FillUniform(Matrix* m, Rng* rng, double lo, double hi) {
  for (size_t i = 0; i < m->size(); ++i) {
    (*m)[i] = rng->Uniform(lo, hi);
  }
}

/// Bit-exact legacy GEMM reference (the pre-kernel-layer blocked loops).
Matrix GemmScalarRef(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  GemmRowsScalar(0, a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                 b.data(), b.cols(), c.data(), b.cols());
  return c;
}

// Ragged shapes straddling the 2/4-wide vector widths, the 8-wide panel
// width, and the cache-block boundaries.
struct GemmShape {
  size_t m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},  {1, 13, 9},  {3, 5, 7},    {5, 17, 3},  {8, 8, 8},
    {7, 9, 16}, {9, 24, 11}, {13, 31, 33}, {17, 40, 1}, {2, 3, 65},
};

// ------------------------------------------------------------- dispatch ---

TEST(KernelDispatchTest, ScalarLevelAlwaysAvailable) {
  EXPECT_TRUE(LevelCompiled(SimdLevel::kScalar));
  EXPECT_TRUE(LevelSupported(SimdLevel::kScalar));
  EXPECT_TRUE(LevelSupported(ActiveLevel()));
}

TEST(KernelDispatchTest, LevelNames) {
  EXPECT_STREQ("scalar", LevelName(SimdLevel::kScalar));
  EXPECT_STREQ("sse2", LevelName(SimdLevel::kSse2));
  EXPECT_STREQ("avx2", LevelName(SimdLevel::kAvx2));
}

TEST(KernelDispatchTest, ScopedOverrideRestoresPreviousLevel) {
  const SimdLevel before = ActiveLevel();
  {
    ScopedSimdLevel outer(SimdLevel::kScalar);
    EXPECT_EQ(SimdLevel::kScalar, ActiveLevel());
    for (SimdLevel l : SupportedLevels()) {
      ScopedSimdLevel inner(l);
      EXPECT_EQ(l, ActiveLevel());
    }
    EXPECT_EQ(SimdLevel::kScalar, ActiveLevel());
  }
  EXPECT_EQ(before, ActiveLevel());
}

// ----------------------------------------------------------------- GEMM ---

TEST(GemmParityTest, RaggedShapesWithinConditionBound) {
  Rng rng(0xA11CE);
  for (const GemmShape& s : kGemmShapes) {
    Matrix a(s.m, s.k);
    Matrix b(s.k, s.n);
    FillUniform(&a, &rng, -2.0, 2.0);
    FillUniform(&b, &rng, -2.0, 2.0);
    const Matrix ref = GemmScalarRef(a, b);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel scoped(level);
      Matrix c(s.m, s.n);
      MatMulInto(a, b, &c);
      for (size_t i = 0; i < s.m; ++i) {
        for (size_t j = 0; j < s.n; ++j) {
          double abs_sum = 0.0;
          for (size_t p = 0; p < s.k; ++p) {
            abs_sum += std::fabs(a(i, p) * b(p, j));
          }
          // Reordered/FMA'd accumulation differs from the scalar order by at
          // most a few eps per term of the absolute sum.
          const double tol = 4.0 * static_cast<double>(s.k) * kEps * abs_sum;
          EXPECT_LE(std::fabs(c(i, j) - ref(i, j)), tol)
              << LevelName(level) << " gemm " << s.m << "x" << s.k << "x"
              << s.n << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(GemmParityTest, Sse2BitIdenticalToScalar) {
  if (!LevelSupported(SimdLevel::kSse2)) {
    GTEST_SKIP() << "SSE2 not supported on this machine";
  }
  Rng rng(0xB0B);
  for (const GemmShape& s : kGemmShapes) {
    Matrix a(s.m, s.k);
    Matrix b(s.k, s.n);
    FillUniform(&a, &rng, -3.0, 3.0);
    FillUniform(&b, &rng, -3.0, 3.0);
    const Matrix ref = GemmScalarRef(a, b);
    ScopedSimdLevel scoped(SimdLevel::kSse2);
    Matrix c(s.m, s.n);
    MatMulInto(a, b, &c);
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(ref[i], c[i]) << "sse2 gemm diverged at flat index " << i
                              << " for " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(GemmParityTest, TransposedVariantsBitIdenticalToCompositionAtScalar) {
  ScopedSimdLevel scoped(SimdLevel::kScalar);
  Rng rng(0xC0FFEE);
  Matrix a(11, 7);
  Matrix b(11, 5);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  const Matrix tn = MatMulTN(a, b);
  const Matrix tn_ref = MatMul(Transpose(a), b);
  ASSERT_EQ(tn.rows(), tn_ref.rows());
  ASSERT_EQ(tn.cols(), tn_ref.cols());
  for (size_t i = 0; i < tn.size(); ++i) {
    EXPECT_EQ(tn_ref[i], tn[i]) << "GemmTN flat index " << i;
  }

  Matrix c(9, 13);
  Matrix d(6, 13);
  FillUniform(&c, &rng, -2.0, 2.0);
  FillUniform(&d, &rng, -2.0, 2.0);
  const Matrix nt = MatMulNT(c, d);
  const Matrix nt_ref = MatMul(c, Transpose(d));
  ASSERT_EQ(nt.rows(), nt_ref.rows());
  ASSERT_EQ(nt.cols(), nt_ref.cols());
  for (size_t i = 0; i < nt.size(); ++i) {
    EXPECT_EQ(nt_ref[i], nt[i]) << "GemmNT flat index " << i;
  }
}

TEST(GemmParityTest, TransposedVariantsWithinConditionBoundAtAllLevels) {
  Rng rng(0xDEAD);
  Matrix a(14, 9);
  Matrix b(14, 10);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  Matrix ref_tn;
  Matrix ref_nt;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ref_tn = MatMulTN(a, b);
    ref_nt = MatMulNT(Transpose(a), Transpose(b));
  }
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    const Matrix tn = MatMulTN(a, b);
    const Matrix nt = MatMulNT(Transpose(a), Transpose(b));
    const double k = static_cast<double>(a.rows());
    for (size_t i = 0; i < tn.size(); ++i) {
      const double tol = 4.0 * k * kEps * (std::fabs(ref_tn[i]) + k * 4.0);
      EXPECT_NEAR(ref_tn[i], tn[i], tol) << LevelName(level) << " GemmTN";
      EXPECT_NEAR(ref_nt[i], nt[i], tol) << LevelName(level) << " GemmNT";
    }
  }
}

// The serve layer's batched-vs-unbatched bit-identity reduces to this
// kernel-level property: each output row depends only on that row of A.
TEST(GemmParityTest, RowResultsIndependentOfBatchSize) {
  Rng rng(0xFEED);
  const size_t m = 6, k = 13, n = 9;
  Matrix a(m, k);
  Matrix b(k, n);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    Matrix full(m, n);
    MatMulInto(a, b, &full);
    for (size_t r = 0; r < m; ++r) {
      Matrix row(1, k);
      for (size_t p = 0; p < k; ++p) {
        row(0, p) = a(r, p);
      }
      Matrix out(1, n);
      MatMulInto(row, b, &out);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(full(r, j), out(0, j))
            << LevelName(level) << " row " << r << " col " << j;
      }
    }
  }
}

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// One-row-at-a-time oracle: per element, c += a(i,p) * b(p,j) for
/// ascending p.
void GemmOneRowOracle(size_t r0, size_t r1, size_t n, size_t k,
                      const double* a, size_t lda, const double* b,
                      size_t ldb, double* c, size_t ldc) {
  for (size_t i = r0; i < r1; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const double a_ip = a[i * lda + p];
      for (size_t j = 0; j < n; ++j) {
        c[i * ldc + j] += a_ip * b[p * ldb + j];
      }
    }
  }
}

// The four-row interleave must leave every element's operation sequence
// unchanged: bitwise equal to the one-row oracle for every row remainder,
// every skinny width (all of which take this path at every level), k across
// the 64-wide cache block, signed zeros and NaN.
TEST(GemmParityTest, FourRowScalarRowsMatchOneRowOracleBitwise) {
  Rng rng(0x4A0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t m : {4u, 5u, 6u, 7u, 9u, 10u, 11u}) {
    for (size_t n = 1; n <= 7; ++n) {
      for (size_t k : {1u, 3u, 20u, 70u}) {
        // Padded leading dimensions catch any stride mix-up.
        const size_t lda = k + 2, ldb = n + 1, ldc = n + 3;
        std::vector<double> a(m * lda), b(k * ldb), c0(m * ldc);
        for (double& v : a) v = rng.Uniform(-2.0, 2.0);
        for (double& v : b) v = rng.Uniform(-2.0, 2.0);
        for (double& v : c0) v = rng.Uniform(-1.0, 1.0);
        // Row 1 sums only signed zeros; row 2 carries a NaN; row 0 starts
        // from -0.0 in column 0.
        for (size_t p = 0; p < k; ++p) {
          a[1 * lda + p] = p % 2 == 0 ? -0.0 : 0.0;
        }
        c0[1 * ldc] = -0.0;
        c0[0] = -0.0;
        a[2 * lda + k / 2] = nan;
        b[(k - 1) * ldb + n - 1] = -0.0;

        std::vector<double> want = c0;
        GemmOneRowOracle(0, m, n, k, a.data(), lda, b.data(), ldb,
                         want.data(), ldc);
        // Sub-ranges as ParallelFor hands them out, starting off the
        // four-row grid.
        std::vector<double> split = c0;
        GemmRowsScalar(0, 1, n, k, a.data(), lda, b.data(), ldb,
                       split.data(), ldc);
        GemmRowsScalar(1, m, n, k, a.data(), lda, b.data(), ldb,
                       split.data(), ldc);
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(Bits(want[i]), Bits(split[i]))
              << "m=" << m << " n=" << n << " k=" << k << " at " << i;
        }
        for (SimdLevel level : SupportedLevels()) {
          std::vector<double> got = c0;
          Gemm(level, m, n, k, a.data(), lda, b.data(), ldb, got.data(),
               ldc);
          for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(Bits(want[i]), Bits(got[i]))
                << LevelName(level) << " m=" << m << " n=" << n
                << " k=" << k << " at " << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ GemmQuant ---

// GemmQuant on every storage dtype is bit-identical to an explicit decode
// of the payload followed by Gemm at the same level, and it accumulates
// (C +=) like Gemm: both start from the same prefilled C.
TEST(GemmQuantTest, BitIdenticalToDecodePlusGemmAndAccumulates) {
  Rng rng(0x0FF);
  const size_t m = 5, k = 70, n = 9;
  Matrix a(m, k);
  Matrix w(k, n);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&w, &rng, -2.0, 2.0);
  for (DType dtype : {DType::kQ8, DType::kF16, DType::kF32}) {
    std::vector<uint8_t> payload(PayloadBytes(dtype, w.size()));
    EncodePayload(dtype, w.data(), w.size(), payload.data());
    Matrix w_dec(k, n);
    DecodePayload(dtype, payload.data(), w_dec.size(), w_dec.data());
    for (SimdLevel level : SupportedLevels()) {
      Matrix expected(m, n);
      Matrix c(m, n);
      for (size_t i = 0; i < c.size(); ++i) {
        expected[i] = 0.25;
        c[i] = 0.25;
      }
      Gemm(level, m, n, k, a.data(), k, w_dec.data(), n, expected.data(), n);
      GemmQuant(level, m, n, k, a.data(), k, dtype, payload.data(), c.data(),
                n);
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(Bits(expected[i]), Bits(c[i]))
            << DTypeName(dtype) << " " << LevelName(level) << " flat index "
            << i;
      }
    }
  }
}

// ----------------------------------------------------- vector primitives ---

TEST(VectorOpsTest, AxpyWithinFmaBoundOfScalar) {
  Rng rng(0x1234);
  for (size_t n : {1u, 2u, 3u, 7u, 16u, 33u}) {
    std::vector<double> x(n), y0(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      y0[i] = rng.Uniform(-2.0, 2.0);
    }
    const double alpha = rng.Uniform(-1.5, 1.5);
    std::vector<double> ref = y0;
    Axpy(SimdLevel::kScalar, n, alpha, x.data(), ref.data());
    for (SimdLevel level : SupportedLevels()) {
      std::vector<double> y = y0;
      Axpy(level, n, alpha, x.data(), y.data());
      for (size_t i = 0; i < n; ++i) {
        // FMA single-rounds alpha*x[i] + y[i]; the two-rounding scalar path
        // differs by at most one eps of each operand magnitude.
        const double tol =
            2.0 * kEps * (std::fabs(alpha * x[i]) + std::fabs(y0[i]));
        EXPECT_LE(std::fabs(y[i] - ref[i]), tol)
            << LevelName(level) << " axpy n=" << n << " i=" << i;
        if (level == SimdLevel::kSse2) {
          EXPECT_EQ(ref[i], y[i]) << "sse2 axpy must be bit-identical";
        }
      }
    }
  }
}

TEST(VectorOpsTest, ReductionsWithinConditionBoundOfScalar) {
  Rng rng(0x5678);
  for (size_t n : {1u, 3u, 4u, 9u, 17u, 64u, 129u}) {
    std::vector<double> x(n), y(n);
    double abs_dot = 0.0, abs_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-2.0, 2.0);
      y[i] = rng.Uniform(-2.0, 2.0);
      abs_dot += std::fabs(x[i] * y[i]);
      abs_sum += std::fabs(x[i]);
    }
    const double ref_dot = Dot(SimdLevel::kScalar, n, x.data(), y.data());
    const double ref_sum = Sum(SimdLevel::kScalar, n, x.data());
    for (SimdLevel level : SupportedLevels()) {
      const double tol_dot = 4.0 * static_cast<double>(n) * kEps * abs_dot;
      const double tol_sum = 4.0 * static_cast<double>(n) * kEps * abs_sum;
      EXPECT_LE(std::fabs(Dot(level, n, x.data(), y.data()) - ref_dot),
                tol_dot)
          << LevelName(level) << " dot n=" << n;
      EXPECT_LE(std::fabs(Sum(level, n, x.data()) - ref_sum), tol_sum)
          << LevelName(level) << " sum n=" << n;
      if (level == SimdLevel::kSse2) {
        // SSE2 keeps the scalar reduction order.
        EXPECT_EQ(ref_dot, Dot(level, n, x.data(), y.data()));
        EXPECT_EQ(ref_sum, Sum(level, n, x.data()));
      }
    }
  }
}

// -------------------------------------------------- elementwise kernels ---

std::vector<double> TranscendentalProbe() {
  std::vector<double> xs = {0.0,   -0.0,  1e-300, -1e-300, 0.5,  -0.5,
                            1.0,   -1.0,  3.75,   -3.75,   19.5, -19.5,
                            25.0,  -25.0, 37.0,   -37.0};
  Rng rng(0x9999);
  for (int i = 0; i < 512; ++i) {
    xs.push_back(rng.Uniform(-20.0, 20.0));
  }
  return xs;
}

TEST(ElementwiseTest, TranscendentalsWithinFourUlpOfScalar) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> ref(n), out(n);
  for (SimdLevel level : SupportedLevels()) {
    EwTanh(SimdLevel::kScalar, n, xs.data(), ref.data());
    EwTanh(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDistance(ref[i], out[i]), 4u)
          << LevelName(level) << " tanh(" << xs[i] << ") = " << out[i]
          << " vs " << ref[i];
    }
    EwSigmoid(SimdLevel::kScalar, n, xs.data(), ref.data());
    EwSigmoid(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(UlpDistance(ref[i], out[i]), 4u)
          << LevelName(level) << " sigmoid(" << xs[i] << ") = " << out[i]
          << " vs " << ref[i];
    }
    if (level == SimdLevel::kSse2) {
      // SSE2 routes transcendentals to the scalar formulas.
      EwTanh(level, n, xs.data(), out.data());
      EwTanh(SimdLevel::kScalar, n, xs.data(), ref.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref[i], out[i]);
      }
    }
  }
}

TEST(ElementwiseTest, SoftplusAndReluBitIdenticalAtAllLevels) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> ref(n), out(n);
  EwSoftplus(SimdLevel::kScalar, n, xs.data(), ref.data());
  for (SimdLevel level : SupportedLevels()) {
    EwSoftplus(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref[i], out[i]) << LevelName(level) << " softplus";
    }
  }
  EwRelu(SimdLevel::kScalar, n, xs.data(), ref.data());
  for (SimdLevel level : SupportedLevels()) {
    EwRelu(level, n, xs.data(), out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref[i], out[i]) << LevelName(level) << " relu";
    }
  }
}

// A row of a batched activation matrix starts at an arbitrary offset in the
// flat buffer, so each element's result must not depend on where the buffer
// was split — that is what keeps batched and unbatched serving bit-identical.
TEST(ElementwiseTest, ResultsIndependentOfBufferSplit) {
  const std::vector<double> xs = TranscendentalProbe();
  const size_t n = xs.size();
  std::vector<double> whole(n), split(n);
  for (SimdLevel level : SupportedLevels()) {
    for (size_t cut : {1u, 3u, 5u, 17u}) {
      EwTanh(level, n, xs.data(), whole.data());
      EwTanh(level, cut, xs.data(), split.data());
      EwTanh(level, n - cut, xs.data() + cut, split.data() + cut);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(whole[i], split[i])
            << LevelName(level) << " tanh split at " << cut;
      }
      EwSigmoid(level, n, xs.data(), whole.data());
      EwSigmoid(level, cut, xs.data(), split.data());
      EwSigmoid(level, n - cut, xs.data() + cut, split.data() + cut);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(whole[i], split[i])
            << LevelName(level) << " sigmoid split at " << cut;
      }
    }
  }
}

// ------------------------------------------------------ fused LSTM cell ---

struct LstmFixture {
  size_t batch;
  size_t hidden;
  Matrix gates;   // batch x 4H pre-activations
  Matrix c_prev;  // batch x H
  // -0.0 is the additive identity for every double (x + -0.0 == x bit for
  // bit, +0.0 and NaN included), so combining with these leaves the
  // fixture's pre-activations exactly as given.
  Matrix zero_hh;    // batch x 4H of -0.0
  Matrix zero_bias;  // 1 x 4H of -0.0
};

LstmFixture MakeLstmFixture(size_t batch, size_t hidden, uint64_t seed) {
  LstmFixture f{batch,
                hidden,
                Matrix(batch, 4 * hidden),
                Matrix(batch, hidden),
                Matrix(batch, 4 * hidden, -0.0),
                Matrix(1, 4 * hidden, -0.0)};
  Rng rng(seed);
  FillUniform(&f.gates, &rng, -3.0, 3.0);
  FillUniform(&f.c_prev, &rng, -1.5, 1.5);
  return f;
}

// The fused combine (xW_x + hW_h) + b inside the cell kernel against a
// separate combine loop followed by the kernel on the combined
// pre-activations (the identity combine above), bitwise at every level.
TEST(LstmKernelTest, FusedGateCombineMatchesSeparateLoopBitwise) {
  for (size_t hidden : {5u, 20u, 21u}) {
    for (size_t batch = 0; batch <= 9; ++batch) {
      Rng rng(0xC0 + 16 * hidden + batch);
      Matrix xw(batch, 4 * hidden), hw(batch, 4 * hidden);
      Matrix bias(1, 4 * hidden), c_prev(batch, hidden);
      FillUniform(&xw, &rng, -2.0, 2.0);
      FillUniform(&hw, &rng, -2.0, 2.0);
      FillUniform(&bias, &rng, -1.0, 1.0);
      FillUniform(&c_prev, &rng, -1.5, 1.5);
      if (batch > 0) {
        xw(0, 0) = -0.0;  // (-0 + -0) + -0 must stay -0
        hw(0, 0) = -0.0;
        bias(0, 0) = -0.0;
      }
      Matrix pre(batch, 4 * hidden);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t c = 0; c < 4 * hidden; ++c) {
          pre(r, c) = (xw(r, c) + hw(r, c)) + bias(0, c);
        }
      }
      const Matrix zero_hh(batch, 4 * hidden, -0.0);
      const Matrix zero_bias(1, 4 * hidden, -0.0);
      for (SimdLevel level : SupportedLevels()) {
        Matrix act_ref = pre;
        Matrix h_ref(batch, hidden), c_ref(batch, hidden);
        Matrix tc_ref(batch, hidden);
        LstmCellForward(level, batch, hidden, act_ref.data(), zero_hh.data(),
                        zero_bias.data(), c_prev.data(), hidden,
                        h_ref.data(), hidden, c_ref.data(), hidden,
                        tc_ref.data());
        Matrix act = xw;
        Matrix h(batch, hidden), c(batch, hidden), tc(batch, hidden);
        LstmCellForward(level, batch, hidden, act.data(), hw.data(),
                        bias.data(), c_prev.data(), hidden, h.data(), hidden,
                        c.data(), hidden, tc.data());
        for (size_t i = 0; i < act.size(); ++i) {
          ASSERT_EQ(Bits(act_ref[i]), Bits(act[i]))
              << LevelName(level) << " H=" << hidden << " B=" << batch
              << " gate " << i;
        }
        for (size_t i = 0; i < h.size(); ++i) {
          ASSERT_EQ(Bits(h_ref[i]), Bits(h[i])) << LevelName(level) << " h";
          ASSERT_EQ(Bits(c_ref[i]), Bits(c[i])) << LevelName(level) << " c";
          ASSERT_EQ(Bits(tc_ref[i]), Bits(tc[i]))
              << LevelName(level) << " tanh_c";
        }
      }
    }
  }
}

TEST(LstmKernelTest, ForwardMatchesScalarWithinBound) {
  for (size_t hidden : {1u, 3u, 4u, 6u, 11u}) {
    LstmFixture f = MakeLstmFixture(5, hidden, 0x77 + hidden);
    Matrix act_ref = f.gates;
    Matrix h_ref(f.batch, hidden), c_ref(f.batch, hidden);
    Matrix tc_ref(f.batch, hidden);
    LstmCellForward(SimdLevel::kScalar, f.batch, hidden, act_ref.data(),
                    f.zero_hh.data(), f.zero_bias.data(), f.c_prev.data(),
                    hidden, h_ref.data(), hidden, c_ref.data(), hidden,
                    tc_ref.data());
    for (SimdLevel level : SupportedLevels()) {
      Matrix act = f.gates;
      Matrix h(f.batch, hidden), c(f.batch, hidden), tc(f.batch, hidden);
      LstmCellForward(level, f.batch, hidden, act.data(), f.zero_hh.data(),
                      f.zero_bias.data(), f.c_prev.data(), hidden, h.data(),
                      hidden, c.data(), hidden, tc.data());
      for (size_t i = 0; i < act.size(); ++i) {
        EXPECT_LE(UlpDistance(act_ref[i], act[i]), 4u)
            << LevelName(level) << " activated gate " << i;
      }
      // c and h combine few-ULP-different gate values with plain mul/add;
      // a loose relative envelope keeps the bound condition-aware without
      // re-deriving per-element error terms.
      for (size_t i = 0; i < c.size(); ++i) {
        EXPECT_NEAR(c_ref[i], c[i], 1e-12 * (1.0 + std::fabs(c_ref[i])))
            << LevelName(level) << " c[" << i << "]";
        EXPECT_NEAR(h_ref[i], h[i], 1e-12 * (1.0 + std::fabs(h_ref[i])))
            << LevelName(level) << " h[" << i << "]";
        EXPECT_NEAR(tc_ref[i], tc[i], 1e-12)
            << LevelName(level) << " tanh_c[" << i << "]";
      }
    }
  }
}

TEST(LstmKernelTest, ForwardRowsIndependentOfBatchSize) {
  const size_t hidden = 7;
  LstmFixture f = MakeLstmFixture(4, hidden, 0x31337);
  for (SimdLevel level : SupportedLevels()) {
    Matrix act_full = f.gates;
    Matrix h_full(f.batch, hidden), c_full(f.batch, hidden);
    LstmCellForward(level, f.batch, hidden, act_full.data(),
                    f.zero_hh.data(), f.zero_bias.data(), f.c_prev.data(),
                    hidden, h_full.data(), hidden, c_full.data(), hidden,
                    nullptr);
    for (size_t r = 0; r < f.batch; ++r) {
      Matrix act_row(1, 4 * hidden);
      Matrix cp_row(1, hidden);
      for (size_t j = 0; j < 4 * hidden; ++j) {
        act_row(0, j) = f.gates(r, j);
      }
      for (size_t j = 0; j < hidden; ++j) {
        cp_row(0, j) = f.c_prev(r, j);
      }
      Matrix h_row(1, hidden), c_row(1, hidden);
      LstmCellForward(level, 1, hidden, act_row.data(), f.zero_hh.data(),
                      f.zero_bias.data(), cp_row.data(), hidden,
                      h_row.data(), hidden, c_row.data(), hidden, nullptr);
      for (size_t j = 0; j < hidden; ++j) {
        EXPECT_EQ(h_full(r, j), h_row(0, j))
            << LevelName(level) << " h row " << r;
        EXPECT_EQ(c_full(r, j), c_row(0, j))
            << LevelName(level) << " c row " << r;
      }
    }
  }
}

TEST(LstmKernelTest, BackwardBitIdenticalAcrossLevels) {
  const size_t batch = 4, hidden = 6;
  LstmFixture f = MakeLstmFixture(batch, hidden, 0xABCD);
  // Activate the gates once at the scalar level so every backward call sees
  // identical inputs.
  Matrix act = f.gates;
  Matrix h(batch, hidden), c(batch, hidden), tc(batch, hidden);
  LstmCellForward(SimdLevel::kScalar, batch, hidden, act.data(),
                  f.zero_hh.data(), f.zero_bias.data(), f.c_prev.data(),
                  hidden, h.data(), hidden, c.data(), hidden, tc.data());
  Rng rng(0xEF);
  Matrix dh(batch, hidden), dc(batch, hidden);
  FillUniform(&dh, &rng, -1.0, 1.0);
  FillUniform(&dc, &rng, -1.0, 1.0);

  Matrix dgates_ref(batch, 4 * hidden), dcp_ref(batch, hidden);
  LstmCellBackward(SimdLevel::kScalar, batch, hidden, act.data(),
                   f.c_prev.data(), hidden, tc.data(), dh.data(), hidden,
                   dc.data(), hidden, dgates_ref.data(), dcp_ref.data());
  for (SimdLevel level : SupportedLevels()) {
    Matrix dgates(batch, 4 * hidden), dcp(batch, hidden);
    LstmCellBackward(level, batch, hidden, act.data(), f.c_prev.data(),
                     hidden, tc.data(), dh.data(), hidden, dc.data(), hidden,
                     dgates.data(), dcp.data());
    for (size_t i = 0; i < dgates.size(); ++i) {
      EXPECT_EQ(dgates_ref[i], dgates[i])
          << LevelName(level) << " dgates[" << i << "]";
    }
    for (size_t i = 0; i < dcp.size(); ++i) {
      EXPECT_EQ(dcp_ref[i], dcp[i])
          << LevelName(level) << " dc_prev[" << i << "]";
    }
  }
}

// ------------------------------------------- fused LSTM step on the tape ---

// Replicates the pre-kernel-layer LstmCell::Step graph op for op; at the
// scalar level the fused step must reproduce its values and parameter
// gradients bit-for-bit.
autodiff::Var UnfusedLstmStep(autodiff::Tape* tape, autodiff::Var x,
                              autodiff::Var h_prev, autodiff::Var c_prev,
                              autodiff::Parameter* wx, autodiff::Parameter* wh,
                              autodiff::Parameter* b, size_t hidden,
                              autodiff::Var* c_out) {
  using autodiff::Var;
  Var gates = tape->AddRowBroadcast(
      tape->Add(tape->MatMul(x, tape->Bind(wx)),
                tape->MatMul(h_prev, tape->Bind(wh))),
      tape->Bind(b));
  Var i = tape->Sigmoid(tape->SliceCols(gates, 0, hidden));
  Var f = tape->Sigmoid(tape->SliceCols(gates, hidden, 2 * hidden));
  Var g = tape->Tanh(tape->SliceCols(gates, 2 * hidden, 3 * hidden));
  Var o = tape->Sigmoid(tape->SliceCols(gates, 3 * hidden, 4 * hidden));
  Var c = tape->Add(tape->Mul(f, c_prev), tape->Mul(i, g));
  *c_out = c;
  return tape->Mul(o, tape->Tanh(c));
}

TEST(FusedLstmTapeTest, ScalarValuesAndGradsBitIdenticalToUnfusedReference) {
  ScopedSimdLevel scalar_only(SimdLevel::kScalar);
  using autodiff::Parameter;
  using autodiff::Tape;
  using autodiff::Var;

  const size_t in_dim = 3, hidden = 4, batch = 2, unroll = 3;
  Rng init(0x515);
  nn::LstmCell cell(in_dim, hidden, &init);
  std::vector<Parameter*> cell_params = cell.Params();
  ASSERT_EQ(3u, cell_params.size());
  // Reference copies of (w_x, w_h, b), matched by shape.
  Parameter wx(cell_params[0]->value);
  Parameter wh(cell_params[1]->value);
  Parameter b(cell_params[2]->value);
  ASSERT_EQ(in_dim, wx.value.rows());
  ASSERT_EQ(hidden, wh.value.rows());
  ASSERT_EQ(1u, b.value.rows());

  Rng data_rng(0x7777);
  std::vector<Matrix> inputs;
  for (size_t t = 0; t < unroll; ++t) {
    Matrix x(batch, in_dim);
    FillUniform(&x, &data_rng, -1.0, 1.0);
    inputs.push_back(std::move(x));
  }

  // Fused graph (the production LstmCell::Step).
  cell.ZeroGrads();
  Tape fused_tape;
  nn::LstmCell::State state = cell.ZeroState(&fused_tape, batch);
  for (size_t t = 0; t < unroll; ++t) {
    Var x = fused_tape.Input(batch, in_dim);
    Matrix& xm = *fused_tape.MutableValue(x);
    for (size_t i = 0; i < xm.size(); ++i) {
      xm[i] = inputs[t][i];
    }
    state = cell.Step(&fused_tape, x, state);
  }
  Var fused_loss = fused_tape.Add(
      fused_tape.Sum(fused_tape.Mul(state.h, state.h)),
      fused_tape.Sum(state.c));
  fused_tape.Backward(fused_loss);

  // Unfused legacy reference graph.
  Tape ref_tape;
  Var h = ref_tape.Zeros(batch, hidden);
  Var c = ref_tape.Zeros(batch, hidden);
  for (size_t t = 0; t < unroll; ++t) {
    Var x = ref_tape.Input(batch, in_dim);
    Matrix& xm = *ref_tape.MutableValue(x);
    for (size_t i = 0; i < xm.size(); ++i) {
      xm[i] = inputs[t][i];
    }
    Var c_next;
    h = UnfusedLstmStep(&ref_tape, x, h, c, &wx, &wh, &b, hidden, &c_next);
    c = c_next;
  }
  Var ref_loss = ref_tape.Add(ref_tape.Sum(ref_tape.Mul(h, h)),
                              ref_tape.Sum(c));
  ref_tape.Backward(ref_loss);

  // Forward values and loss must agree bit-for-bit.
  EXPECT_EQ(ref_loss.value()(0, 0), fused_loss.value()(0, 0));
  for (size_t i = 0; i < state.h.value().size(); ++i) {
    EXPECT_EQ(h.value()[i], state.h.value()[i]) << "h[" << i << "]";
    EXPECT_EQ(c.value()[i], state.c.value()[i]) << "c[" << i << "]";
  }
  // Parameter gradients must agree bit-for-bit.
  const Parameter* refs[] = {&wx, &wh, &b};
  for (size_t p = 0; p < 3; ++p) {
    const Matrix& got = cell_params[p]->grad;
    const Matrix& want = refs[p]->grad;
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "param " << p << " grad[" << i << "]";
    }
  }
}

// ------------------------------------------------------ fused Adam step ---

/// The pre-kernel training step as an oracle: ClipGradNorm's in-place
/// rescale (only when clipping), then the scalar Adam::Step loop, then
/// ZeroGrad.
void OracleAdamStep(const AdamStep& s, bool clipped, size_t n, double* value,
                    double* grad, double* m, double* v) {
  if (clipped) {
    for (size_t i = 0; i < n; ++i) {
      grad[i] *= s.grad_scale;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    double g = grad[i];
    if (s.weight_decay != 0.0) {
      g += s.weight_decay * value[i];
    }
    m[i] = s.beta1 * m[i] + (1.0 - s.beta1) * g;
    v[i] = s.beta2 * v[i] + (1.0 - s.beta2) * g * g;
    const double m_hat = m[i] / s.bias_correction1;
    const double v_hat = v[i] / s.bias_correction2;
    value[i] -= s.lr * m_hat / (std::sqrt(v_hat) + s.epsilon);
  }
  for (size_t i = 0; i < n; ++i) {
    grad[i] = 0.0;
  }
}

TEST(AdamKernelTest, MatchesScalarLoopBitwiseAtEveryLevel) {
  for (SimdLevel level : SupportedLevels()) {
    for (size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 40u, 41u, 42u, 43u}) {
      for (double decay : {0.0, 0.01}) {
        for (bool clipped : {false, true}) {
          Rng rng(1000 + n);
          std::vector<double> value(n), m(n, 0.0), v(n, 0.0);
          for (double& x : value) {
            x = rng.Uniform(-2.0, 2.0);
          }
          std::vector<double> value_ref = value, m_ref = m, v_ref = v;
          for (int t = 1; t <= 4; ++t) {
            AdamStep step;
            step.lr = 3e-3;
            step.weight_decay = decay;
            step.bias_correction1 = 1.0 - std::pow(step.beta1, t);
            step.bias_correction2 = 1.0 - std::pow(step.beta2, t);
            step.grad_scale = clipped ? 0.37 : 1.0;
            std::vector<double> grad(n);
            for (double& g : grad) {
              // Include exact zeros and a wide magnitude range.
              g = rng.Uniform() < 0.1 ? 0.0
                                       : rng.Uniform(-1.0, 1.0) *
                                             std::pow(10.0, rng.Uniform(-6, 3));
            }
            std::vector<double> grad_ref = grad;
            AdamUpdate(level, n, step, value.data(), grad.data(), m.data(),
                       v.data(), 0.0);
            OracleAdamStep(step, clipped, n, value_ref.data(),
                           grad_ref.data(), m_ref.data(), v_ref.data());
            for (size_t i = 0; i < n; ++i) {
              ASSERT_EQ(std::memcmp(&value[i], &value_ref[i], 8), 0)
                  << LevelName(level) << " n=" << n << " decay=" << decay
                  << " clipped=" << clipped << " t=" << t << " i=" << i;
              ASSERT_EQ(std::memcmp(&m[i], &m_ref[i], 8), 0);
              ASSERT_EQ(std::memcmp(&v[i], &v_ref[i], 8), 0);
              ASSERT_EQ(std::memcmp(&grad[i], &grad_ref[i], 8), 0);
            }
          }
        }
      }
    }
  }
}

/// One operand lane for the stress test. Wild lanes are normal values over
/// a wide exponent range plus the edges of the reciprocal path's range
/// guard; tame lanes keep every quotient on the reciprocal path.
double StressLane(Rng* rng, bool wild) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const double kSpecials[] = {
      0.0, -0.0,
      std::numeric_limits<double>::denorm_min(), -0x1p-1050, 0x1p-1030,
      0x1p-960, std::nextafter(0x1p-960, 0.0),
      std::nextafter(0x1p-960, 1.0), -0x1p-960,
      0x1p960, std::nextafter(0x1p960, 0.0), std::nextafter(0x1p960, kInf),
      -0x1p960, 1e300, -1e300, std::numeric_limits<double>::max(), kInf,
      -kInf, std::numeric_limits<double>::quiet_NaN()};
  constexpr size_t kNumSpecials = sizeof(kSpecials) / sizeof(kSpecials[0]);
  if (wild && rng->Uniform() < 0.15) {
    return kSpecials[rng->NextUint64() % kNumSpecials];
  }
  const int exponents = wild ? 1960 : 500;
  const double mag = std::ldexp(
      rng->Uniform(1.0, 2.0),
      static_cast<int>(rng->NextUint64() % exponents) - exponents / 2);
  return rng->Uniform() < 0.5 ? -mag : mag;
}

/// Bitwise equality, or both NaN (NaN payloads and signs may differ).
bool SameOrBothNan(double a, double b) {
  return std::memcmp(&a, &b, 8) == 0 || (std::isnan(a) && std::isnan(b));
}

TEST(AdamKernelTest, ReciprocalDivisionAndFusedNormMatchOracleOnMillionLanes) {
  // Bias corrections of Adam's defaults at these t, divisors at and beyond
  // the reciprocal path's [2^-62, 2^62] guard, then random divisors.
  std::vector<int> ts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000, 10000};
  const std::vector<double> fixed_divisors = {0x1p-70, 0x1p-62, 0x1p62,
                                              0x1p70,  3.0,     -0.75};
  constexpr size_t kRandomDivisors = 3;
  constexpr size_t kLanes = 4095;  // odd, so every call has a masked tail
  for (SimdLevel level : SupportedLevels()) {
    Rng rng(4242);
    size_t lanes = 0;
    const size_t num_divisors =
        ts.size() + fixed_divisors.size() + kRandomDivisors;
    for (size_t c = 0; c < num_divisors; ++c) {
      for (int config = 0; config < 16; ++config) {
        AdamStep step;
        step.lr = 1e-3;
        step.weight_decay = (config & 1) ? 0.01 : 0.0;
        step.grad_scale = (config & 2) ? 0.37 : 1.0;
        // Zero betas pass g (and g*g) straight into the bias-correction
        // quotients, so the edge lanes reach the division unchanged.
        const bool zero_betas = (config & 4) != 0;
        step.beta1 = zero_betas ? 0.0 : 0.9;
        step.beta2 = zero_betas ? 0.0 : 0.999;
        if (c < ts.size()) {
          step.bias_correction1 = 1.0 - std::pow(0.9, ts[c]);
          step.bias_correction2 = 1.0 - std::pow(0.999, ts[c]);
        } else if (c < ts.size() + fixed_divisors.size()) {
          step.bias_correction1 = fixed_divisors[c - ts.size()];
          step.bias_correction2 = fixed_divisors[c - ts.size()];
        } else {
          step.bias_correction1 = rng.Uniform(0.5, 1.0);
          step.bias_correction2 = rng.Uniform(0.5, 1.0);
        }
        const bool wild = (config & 8) != 0;
        const size_t n = kLanes - static_cast<size_t>(config);
        std::vector<double> value(n), grad(n), m(n), v(n);
        for (size_t i = 0; i < n; ++i) {
          value[i] = StressLane(&rng, wild);
          grad[i] = StressLane(&rng, wild);
          m[i] = StressLane(&rng, wild);
          v[i] = StressLane(&rng, wild);
        }
        std::vector<double> value_ref = value, grad_ref = grad, m_ref = m,
                            v_ref = v;
        const double sq_in = rng.Uniform(0.0, 4.0);
        double sq_ref = sq_in;
        for (size_t i = 0; i < n; ++i) {
          sq_ref += grad[i] * grad[i];
        }
        const double sq = AdamUpdate(level, n, step, value.data(),
                                     grad.data(), m.data(), v.data(), sq_in);
        OracleAdamStep(step, step.grad_scale != 1.0, n, value_ref.data(),
                       grad_ref.data(), m_ref.data(), v_ref.data());
        ASSERT_TRUE(SameOrBothNan(sq, sq_ref))
            << LevelName(level) << " sq=" << sq << " want " << sq_ref;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(SameOrBothNan(m[i], m_ref[i]) &&
                      SameOrBothNan(v[i], v_ref[i]) &&
                      SameOrBothNan(value[i], value_ref[i]) &&
                      SameOrBothNan(grad[i], grad_ref[i]))
              << LevelName(level) << " divisor " << c << " config " << config
              << " i=" << i << " value " << value[i] << " want "
              << value_ref[i];
        }
        lanes += n;
      }
    }
    EXPECT_GE(lanes, 1000000u) << LevelName(level);
  }
}

TEST(AdamKernelTest, ReturnedSquaredNormIsSequentialSum) {
  for (SimdLevel level : SupportedLevels()) {
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 9u, 2488u}) {
      Rng rng(77 + n);
      std::vector<double> value(n, 0.5), grad(n), m(n, 0.0), v(n, 0.0);
      for (double& g : grad) {
        g = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.Uniform(-8, 8));
      }
      double want = 0.25;
      for (double g : grad) {
        want += g * g;
      }
      AdamStep step;
      step.bias_correction1 = 0.1;
      step.bias_correction2 = 1.0 - 0.999;
      const double got = AdamUpdate(level, n, step, value.data(),
                                    grad.data(), m.data(), v.data(), 0.25);
      EXPECT_EQ(std::memcmp(&got, &want, 8), 0)
          << LevelName(level) << " n=" << n;
    }
  }
}

// --------------------------------------------------- train-loop parity ---

nn::TrainSummary RunTinyLstmTraining(SimdLevel level) {
  ScopedSimdLevel scoped(level);
  using autodiff::Tape;
  using autodiff::Var;

  Rng init(7);
  nn::LstmCell cell(1, 6, &init);
  nn::Dense head(6, 1, nn::Dense::Activation::kNone, &init);
  std::vector<autodiff::Parameter*> params;
  for (auto* p : cell.Params()) {
    params.push_back(p);
  }
  for (auto* p : head.Params()) {
    params.push_back(p);
  }

  const size_t batch = 4, unroll = 6;
  auto loss_fn = [&](Tape* tape, Rng* /*rng*/) -> Var {
    // Fixed full-batch sine-prediction data: deterministic across levels.
    nn::LstmCell::State state = cell.ZeroState(tape, batch);
    Var loss;
    for (size_t t = 0; t < unroll; ++t) {
      Var x = tape->Input(batch, 1);
      Var y = tape->Input(batch, 1);
      Matrix& xm = *tape->MutableValue(x);
      Matrix& ym = *tape->MutableValue(y);
      for (size_t r = 0; r < batch; ++r) {
        const double phase = 0.7 * static_cast<double>(r);
        xm(r, 0) = std::sin(0.4 * static_cast<double>(t) + phase);
        ym(r, 0) = std::sin(0.4 * static_cast<double>(t + 1) + phase);
      }
      state = cell.Step(tape, x, state);
      Var mse = nn::MseLoss(tape, head.Forward(tape, state.h), y);
      loss = t == 0 ? mse : tape->Add(loss, mse);
    }
    return tape->Scale(loss, 1.0 / static_cast<double>(unroll));
  };

  nn::TrainConfig config;
  config.steps = 40;
  config.lr = 1e-2;
  config.record_loss = true;
  return nn::TrainLoop(config, params, loss_fn);
}

TEST(TrainLoopParityTest, FinalLossAgreesAcrossLevelsAndArenaStaysFlat) {
  const nn::TrainSummary base = RunTinyLstmTraining(SimdLevel::kScalar);
  ASSERT_FALSE(base.loss_history.empty());
  // The model must actually learn, and the tape arena must stop allocating
  // after the first (warmup) step — the O(1)-allocation property.
  EXPECT_LT(base.final_loss, base.loss_history.front());
  EXPECT_EQ(base.arena_allocs_after_warmup, base.arena_allocs_final);
  for (SimdLevel level : SupportedLevels()) {
    if (level == SimdLevel::kScalar) {
      continue;
    }
    const nn::TrainSummary run = RunTinyLstmTraining(level);
    EXPECT_NEAR(base.final_loss, run.final_loss, 1e-6)
        << "final loss diverged at level " << LevelName(level);
    EXPECT_EQ(run.arena_allocs_after_warmup, run.arena_allocs_final)
        << "steady-state allocation at level " << LevelName(level);
  }
}

// ---------------------------------------------------- parallel drivers ---

/// Restores the environment/hardware thread default on scope exit.
class ThreadOverrideGuard {
 public:
  ~ThreadOverrideGuard() { SetRpasThreads(0); }
};

TEST(ParallelKernelTest, GrainCostModelIsShapeOnly) {
  ThreadOverrideGuard guard;
  // Below the flop threshold: one chunk covering the whole range, which
  // ParallelFor runs serially on the calling thread.
  EXPECT_EQ(8u, GemmRowGrain(8, 8, 8));
  EXPECT_EQ(1u, GemmRowGrain(1, 1, 1));
  EXPECT_EQ(4u, LstmRowGrain(4, 8));
  // Above it: the fixed row grain, never derived from the thread count.
  EXPECT_EQ(16u, GemmRowGrain(512, 64, 64));
  EXPECT_EQ(8u, LstmRowGrain(512, 64));
  for (int threads : {1, 2, 8}) {
    SetRpasThreads(threads);
    EXPECT_EQ(16u, GemmRowGrain(512, 64, 64)) << threads << " threads";
    EXPECT_EQ(8u, GemmRowGrain(8, 8, 8)) << threads << " threads";
    EXPECT_EQ(8u, LstmRowGrain(512, 64)) << threads << " threads";
  }
}

TEST(ParallelKernelTest, GemmBitIdenticalAcrossThreadCountsAtEveryLevel) {
  ThreadOverrideGuard guard;
  Rng rng(0xFEED);
  // Big enough that 2*m*n*k clears the cost-model threshold, so the
  // parallel row-panel path genuinely engages; ragged in every dimension.
  Matrix a(130, 70);
  Matrix b(70, 91);
  FillUniform(&a, &rng, -2.0, 2.0);
  FillUniform(&b, &rng, -2.0, 2.0);
  ASSERT_EQ(16u, GemmRowGrain(a.rows(), b.cols(), a.cols()));
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    SetRpasThreads(1);
    Matrix ref(a.rows(), b.cols());
    MatMulInto(a, b, &ref);
    for (int threads : {2, 8}) {
      SetRpasThreads(threads);
      Matrix c(a.rows(), b.cols());
      MatMulInto(a, b, &c);
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(ref[i], c[i])
            << LevelName(level) << " gemm diverged at flat index " << i
            << " with " << threads << " threads";
      }
    }
  }
}

TEST(ParallelKernelTest, TransposedGemmsBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(0xD1CE);
  const size_t m = 128, n = 66, k = 97;
  Matrix a_tn(k, m);  // GemmTN reads A as (k x m)
  Matrix a_nt(m, k);
  Matrix b_tn(k, n);
  Matrix b_nt(n, k);  // GemmNT reads B as (n x k)
  FillUniform(&a_tn, &rng, -2.0, 2.0);
  FillUniform(&a_nt, &rng, -2.0, 2.0);
  FillUniform(&b_tn, &rng, -2.0, 2.0);
  FillUniform(&b_nt, &rng, -2.0, 2.0);
  ASSERT_EQ(16u, GemmRowGrain(m, n, k));
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    SetRpasThreads(1);
    Matrix tn_ref(m, n), nt_ref(m, n);
    GemmTN(ActiveLevel(), m, n, k, a_tn.data(), m, b_tn.data(), n,
           tn_ref.data(), n);
    GemmNT(ActiveLevel(), m, n, k, a_nt.data(), k, b_nt.data(), k,
           nt_ref.data(), n);
    for (int threads : {2, 8}) {
      SetRpasThreads(threads);
      Matrix tn(m, n), nt(m, n);
      GemmTN(ActiveLevel(), m, n, k, a_tn.data(), m, b_tn.data(), n,
             tn.data(), n);
      GemmNT(ActiveLevel(), m, n, k, a_nt.data(), k, b_nt.data(), k,
             nt.data(), n);
      for (size_t i = 0; i < tn.size(); ++i) {
        ASSERT_EQ(tn_ref[i], tn[i])
            << LevelName(level) << " GemmTN diverged at " << i << " with "
            << threads << " threads";
        ASSERT_EQ(nt_ref[i], nt[i])
            << LevelName(level) << " GemmNT diverged at " << i << " with "
            << threads << " threads";
      }
    }
  }
}

TEST(ParallelKernelTest, LstmCellBitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  Rng rng(0x1234);
  const size_t batch = 96, hidden = 64;
  ASSERT_EQ(8u, LstmRowGrain(batch, hidden));
  std::vector<double> gates0(batch * 4 * hidden);
  std::vector<double> c_prev(batch * hidden);
  std::vector<double> dh(batch * hidden), dc(batch * hidden);
  const std::vector<double> zero_hh(batch * 4 * hidden, -0.0);
  const std::vector<double> zero_bias(4 * hidden, -0.0);
  for (double& v : gates0) v = rng.Uniform(-2.0, 2.0);
  for (double& v : c_prev) v = rng.Uniform(-1.0, 1.0);
  for (double& v : dh) v = rng.Uniform(-1.0, 1.0);
  for (double& v : dc) v = rng.Uniform(-1.0, 1.0);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    struct Run {
      std::vector<double> act, h, c, tanh_c, dgates, dc_prev;
    };
    auto run_at = [&](int threads) {
      SetRpasThreads(threads);
      Run r;
      r.act = gates0;
      r.h.assign(batch * hidden, 0.0);
      r.c.assign(batch * hidden, 0.0);
      r.tanh_c.assign(batch * hidden, 0.0);
      r.dgates.assign(batch * 4 * hidden, 0.0);
      r.dc_prev.assign(batch * hidden, 0.0);
      LstmCellForward(ActiveLevel(), batch, hidden, r.act.data(),
                      zero_hh.data(), zero_bias.data(), c_prev.data(), hidden,
                      r.h.data(), hidden, r.c.data(), hidden,
                      r.tanh_c.data());
      LstmCellBackward(ActiveLevel(), batch, hidden, r.act.data(),
                       c_prev.data(), hidden, r.tanh_c.data(), dh.data(),
                       hidden, dc.data(), hidden, r.dgates.data(),
                       r.dc_prev.data());
      return r;
    };
    const Run ref = run_at(1);
    for (int threads : {2, 8}) {
      const Run got = run_at(threads);
      for (size_t i = 0; i < ref.h.size(); ++i) {
        ASSERT_EQ(ref.h[i], got.h[i]) << LevelName(level) << " h @ " << i;
        ASSERT_EQ(ref.c[i], got.c[i]) << LevelName(level) << " c @ " << i;
        ASSERT_EQ(ref.dc_prev[i], got.dc_prev[i])
            << LevelName(level) << " dc_prev @ " << i;
      }
      for (size_t i = 0; i < ref.dgates.size(); ++i) {
        ASSERT_EQ(ref.act[i], got.act[i]) << LevelName(level) << " act @ " << i;
        ASSERT_EQ(ref.dgates[i], got.dgates[i])
            << LevelName(level) << " dgates @ " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rpas::tensor::kernels
