#include "nn/losses.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace rpas::nn {

namespace kernels = ::rpas::tensor::kernels;

Var MseLoss(Tape* tape, Var pred, Var target) {
  return tape->Mean(tape->Square(tape->Sub(pred, target)));
}

// Fused likelihood nodes.
//
// Each NLL is one tape node whose forward and backward reproduce, rounding
// for rounding, the elementwise composition it replaces:
//   Gaussian:  Mean(AddScalar(Add(Log(s), Scale(Square(z), 0.5)), c))
//   Student-t: Mean(AddScalar(Add(Log(s), Scale(Log(AddScalar(
//                  Scale(Square(z), 1/dof), 1)), (dof+1)/2)), c))
//   with z = Div(Sub(y, mu), s) and Mean = Scale(Sum(.), 1/n).
// The test suite keeps that composition as the oracle and compares value
// and gradients bitwise at every SIMD level. The rules that make it exact:
//  * Per-element forward expressions are the nodes' own, in the same
//    association; the mean sums through kernels::Sum like Tape::Sum.
//  * Backward runs the composition's node order. Every intermediate grad
//    starts at zero and is accumulated once, so it is `0.0 + expr` for a
//    direct `+=` node, and a kernels::Axpy call into zeros where the node
//    used Axpy (FMA at AVX2). Gradients that are uniform across elements
//    (the mean's, and those of the Scale/Add/AddScalar nodes above the
//    per-element terms) are computed once with the same one-element call.
//  * sigma's grad receives Log's term before Div's (Log is the later
//    node), and Sub's grads go out through Axpy(+1) into the target and
//    Axpy(-1) into mu, in that order.
//  * Axpy with alpha = 1 into a zeroed grad is the identity here: its input
//    is always `0.0 + x`, which is never -0.

namespace {

/// What a fused NLL's backward needs besides its saved rows. Copied into
/// arena scratch so the backward lambda captures two pointers, which keeps
/// std::function in its small buffer: no heap allocation per step.
struct NllInputs {
  size_t mu;
  size_t sigma;
  size_t target;
  double dof;  // Student-t degrees of freedom; unused by the Gaussian
};
static_assert(sizeof(NllInputs) % sizeof(double) == 0);

/// Saved state of one fused NLL node, all arena scratch. `saved` has one
/// n-wide row per intermediate: d = y - mu, z = d / sigma, u = 1 + z^2/dof
/// (Student-t only), and a last work row that holds the per-element NLL for
/// the forward sum and dNLL/d(z^2), then dNLL/dd, in the backward.
struct NllState {
  Matrix* meta;
  Matrix* saved;

  size_t n() const { return saved->cols(); }
  double* row(size_t r) const { return saved->data() + r * saved->cols(); }
  double* work() const { return row(saved->rows() - 1); }
  NllInputs inputs() const {
    NllInputs in;
    std::memcpy(&in, meta->data(), sizeof(in));
    return in;
  }
};
constexpr size_t kRowD = 0;
constexpr size_t kRowZ = 1;
constexpr size_t kRowU = 2;

/// Shape checks, scratch, and the d and z rows both likelihoods share.
NllState BeginNll(Tape* tape, Var mu, Var sigma, Var target, double dof,
                  size_t rows) {
  const Matrix& mv = mu.value();
  const Matrix& sv = sigma.value();
  const Matrix& tv = target.value();
  RPAS_CHECK(tv.SameShape(mv) && mv.SameShape(sv))
      << "NLL shape mismatch: mu " << mv.rows() << "x" << mv.cols()
      << ", sigma " << sv.rows() << "x" << sv.cols() << ", target "
      << tv.rows() << "x" << tv.cols();
  RPAS_CHECK(mv.size() > 0) << "Mean of empty matrix";
  const NllState state{
      tape->Scratch(1, sizeof(NllInputs) / sizeof(double)),
      tape->Scratch(rows, mv.size())};
  const NllInputs inputs{mu.id(), sigma.id(), target.id(), dof};
  std::memcpy(state.meta->data(), &inputs, sizeof(inputs));
  double* d = state.row(kRowD);
  double* z = state.row(kRowZ);
  for (size_t i = 0; i < mv.size(); ++i) {
    d[i] = tv[i] - mv[i];
    z[i] = d[i] / sv[i];
  }
  return state;
}

/// The 1x1 loss node: Scale(Sum(nll), 1/n) over the work row.
Var LossNode(Tape* tape, Var mu, Var sigma, Var target, const NllState& state,
             std::function<void(const Matrix&, Tape*)> backward) {
  const bool requires_grad = tape->RequiresGrad(mu) ||
                             tape->RequiresGrad(sigma) ||
                             tape->RequiresGrad(target);
  Matrix* value = nullptr;
  Var loss =
      tape->AllocNode(1, 1, requires_grad, std::move(backward), &value);
  (*value)(0, 0) = kernels::Sum(kernels::ActiveLevel(), state.n(),
                                state.work()) *
                   (1.0 / static_cast<double>(state.n()));
  return loss;
}

/// The uniform per-element gradient below the mean: Scale(Sum, 1/n)'s
/// Axpy into the zeroed Sum grad, then Sum's `+=` into the zeroed NLL grad.
double ElementGrad(kernels::SimdLevel level, double grad_out, size_t n) {
  const double inv_n = 1.0 / static_cast<double>(n);
  double g_sum = 0.0;
  kernels::Axpy(level, 1, inv_n, &grad_out, &g_sum);
  return 0.0 + g_sum;
}

/// The Log(sigma), Square, Div and Sub backwards both likelihoods share.
/// `g_log_sigma` is Log(sigma)'s incoming grad; the work row holds
/// dNLL/d(z^2) per element and is overwritten with dNLL/dd.
void BackwardTail(Tape* tape, const NllState& state, kernels::SimdLevel level,
                  double g_log_sigma) {
  const NllInputs in = state.inputs();
  const size_t n = state.n();
  const double* d = state.row(kRowD);
  const double* z = state.row(kRowZ);
  double* work = state.work();
  const double* s = tape->ValueOf(in.sigma).data();
  Matrix* g_sigma = tape->GradFor(in.sigma);
  for (size_t i = 0; i < n; ++i) {
    const double gz = 0.0 + (work[i] * z[i]) * 2.0;  // Square
    if (g_sigma != nullptr) {
      (*g_sigma)[i] += g_log_sigma / s[i];  // Log(sigma)
    }
    work[i] = 0.0 + gz / s[i];  // Div into (y - mu)
    if (g_sigma != nullptr) {
      (*g_sigma)[i] += -(gz * d[i]) / (s[i] * s[i]);  // Div into sigma
    }
  }
  if (Matrix* g_target = tape->GradFor(in.target)) {  // Sub
    kernels::Axpy(level, n, 1.0, work, g_target->data());
  }
  if (Matrix* g_mu = tape->GradFor(in.mu)) {
    kernels::Axpy(level, n, -1.0, work, g_mu->data());
  }
}

}  // namespace

Var GaussianNllLoss(Tape* tape, Var mu, Var sigma, Var target) {
  const NllState state =
      BeginNll(tape, mu, sigma, target, /*dof=*/0.0, /*rows=*/3);
  // 0.5*log(2*pi) + log(sigma) + (y-mu)^2 / (2*sigma^2)
  const double c = 0.5 * std::log(2.0 * M_PI);
  const double* s = sigma.value().data();
  const double* z = state.row(kRowZ);
  double* nll = state.work();
  for (size_t i = 0; i < state.n(); ++i) {
    nll[i] = (std::log(s[i]) + (z[i] * z[i]) * 0.5) + c;
  }
  return LossNode(tape, mu, sigma, target, state,
                  [state](const Matrix& g, Tape* t) {
                    const kernels::SimdLevel level = kernels::ActiveLevel();
                    const double g_elem = ElementGrad(level, g(0, 0),
                                                      state.n());
                    double g_sq = 0.0;  // Scale(Square(z), 0.5)
                    kernels::Axpy(level, 1, 0.5, &g_elem, &g_sq);
                    std::fill_n(state.work(), state.n(), g_sq);
                    BackwardTail(t, state, level, g_elem);
                  });
}

Var StudentTNllLoss(Tape* tape, Var mu, Var sigma, Var target, double dof) {
  RPAS_CHECK(dof > 0.0) << "StudentT dof must be positive";
  const NllState state = BeginNll(tape, mu, sigma, target, dof, /*rows=*/4);
  // const(dof) + log(sigma) + (dof+1)/2 * log(1 + z^2/dof)
  const double constant = -std::lgamma((dof + 1.0) / 2.0) +
                          std::lgamma(dof / 2.0) +
                          0.5 * std::log(dof * M_PI);
  const double* s = sigma.value().data();
  const double* z = state.row(kRowZ);
  double* u = state.row(kRowU);
  double* nll = state.work();
  for (size_t i = 0; i < state.n(); ++i) {
    u[i] = (z[i] * z[i]) * (1.0 / dof) + 1.0;
    nll[i] = (std::log(s[i]) + std::log(u[i]) * ((dof + 1.0) / 2.0)) +
             constant;
  }
  return LossNode(
      tape, mu, sigma, target, state, [state](const Matrix& g, Tape* t) {
        const double dof2 = state.inputs().dof;
        const kernels::SimdLevel level = kernels::ActiveLevel();
        const double g_elem = ElementGrad(level, g(0, 0), state.n());
        double g_log_u = 0.0;  // Scale(log_term, (dof+1)/2)
        kernels::Axpy(level, 1, (dof2 + 1.0) / 2.0, &g_elem, &g_log_u);
        double* g_u = state.row(kRowU);
        double* g_sq = state.work();
        for (size_t i = 0; i < state.n(); ++i) {
          g_u[i] = 0.0 + g_log_u / g_u[i];  // Log(u); AddScalar passes it on
          g_sq[i] = 0.0;
        }
        // Scale(Square(z), 1/dof) into the zeroed Square grad.
        kernels::Axpy(level, state.n(), 1.0 / dof2, g_u, g_sq);
        BackwardTail(t, state, level, g_elem);
      });
}

Var QuantileGridLoss(Tape* tape, Var pred, Var target,
                     const std::vector<double>& taus) {
  RPAS_CHECK(pred.cols() == taus.size())
      << "prediction columns must match quantile grid";
  RPAS_CHECK(target.cols() == 1 && target.rows() == pred.rows())
      << "target must be N x 1 aligned with pred";

  // Tile the target across Q columns (constant — no gradient flows to it).
  // Arena-backed Input leaves keep the per-step loss build allocation-free.
  const Matrix& tv = target.value();
  Var y = tape->Input(tv.rows(), taus.size());
  Matrix& tiled = *tape->MutableValue(y);
  for (size_t r = 0; r < tv.rows(); ++r) {
    for (size_t q = 0; q < taus.size(); ++q) {
      tiled(r, q) = tv(r, 0);
    }
  }

  // rho_tau(y, yhat) = max(tau * (y - yhat), (tau - 1) * (y - yhat)).
  Var diff = tape->Sub(y, pred);
  Var tau_row = tape->Input(1, taus.size());
  Var tau_m1_row = tape->Input(1, taus.size());
  for (size_t q = 0; q < taus.size(); ++q) {
    (*tape->MutableValue(tau_row))(0, q) = taus[q];
    (*tape->MutableValue(tau_m1_row))(0, q) = taus[q] - 1.0;
  }
  Var upper = tape->MulRowBroadcast(diff, tau_row);
  Var lower = tape->MulRowBroadcast(diff, tau_m1_row);
  Var pinball = tape->Max(upper, lower);
  // Sum over quantiles, average over rows.
  return tape->Scale(tape->Sum(pinball),
                     1.0 / static_cast<double>(pred.rows()));
}

}  // namespace rpas::nn
