#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/span.h"
#include "tensor/kernels.h"

namespace rpas::nn {

namespace {

namespace kernels = ::rpas::tensor::kernels;

// Sum of every gradient's squares in an unspecified order (kernels::Dot):
// within a relative 2nu of GradNorm's sequential sum over n elements.
double SquaredNormBound(const std::vector<Parameter*>& params) {
  const kernels::SimdLevel level = kernels::ActiveLevel();
  double sum = 0.0;
  for (Parameter* p : params) {
    sum += kernels::Dot(level, p->grad.size(), p->grad.data(),
                        p->grad.data());
  }
  return sum;
}

}  // namespace

TrainSummary TrainLoop(
    const TrainConfig& config, const std::vector<Parameter*>& params,
    const std::function<autodiff::Var(autodiff::Tape*, Rng*)>& loss_fn) {
  RPAS_CHECK(config.steps > 0);
  RPAS_CHECK(config.clip_norm > 0.0);
  Rng rng(config.seed);
  Adam optimizer(Adam::Options{.lr = config.lr});

  // One handle lookup per training run; the per-step updates below are a
  // few relaxed atomics (or a load + branch while metrics are disabled).
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(config.metrics);
  obs::Counter* steps_counter = metrics->GetCounter("nn.train.steps");
  obs::Counter* clip_counter = metrics->GetCounter("nn.train.clip_events");
  obs::Counter* nonfinite_counter =
      metrics->GetCounter("nn.train.nonfinite_steps");
  obs::Histogram* loss_hist = metrics->GetHistogram("nn.train.loss");
  obs::Histogram* grad_hist = metrics->GetHistogram("nn.train.grad_norm");
  obs::Span span("nn.train", config.steps);
  // A step whose bounded norm lies below this limit is provably finite and
  // unclipped: reordering the non-negative squares moves their sum by under
  // 2nu (about 5e-13 at n = 2 488), far inside the 1e-6 margin; the 2^500
  // cap keeps every partial sum below the bound from overflowing, and clip
  // levels under 2^-500, where subnormal squares could eat the margin, never
  // take the fast path.
  const double fast_norm_limit =
      config.clip_norm < 0x1p-500
          ? 0.0
          : std::min(config.clip_norm, 0x1p500) * (1.0 - 1e-6);

  TrainSummary summary;
  summary.best_loss = std::numeric_limits<double>::infinity();
  if (config.record_loss) {
    summary.loss_history.reserve(static_cast<size_t>(config.steps));
  }
  for (Parameter* p : params) {
    p->ZeroGrad();
  }

  // One tape for the whole run: Reset() rewinds node slots and the matrix
  // arena, so steady-state steps reuse the first step's heap blocks.
  autodiff::Tape tape;
  for (int step = 0; step < config.steps; ++step) {
    tape.Reset();
    autodiff::Var loss = loss_fn(&tape, &rng);
    const double loss_value = loss.value()(0, 0);
    tape.Backward(loss);
    // Fast path: the any-order norm bound proves the step finite and
    // unclipped, so the update runs at once and returns GradNorm's exact
    // sum of squares — its sequential add chain runs under the
    // divider-bound update instead of in front of it. Otherwise:
    // ClipGradNorm's sequential norm, then one fused clip + Adam + zero-grad
    // pass per parameter. A non-finite loss or norm (bad telemetry in the
    // minibatch) would write NaN into the weights — and `NaN > clip_norm`
    // is false, so clipping cannot catch it — so such a step is skipped.
    double grad_norm = 0.0;
    bool finite = std::isfinite(loss_value);
    bool clipped = false;
    if (finite && std::sqrt(SquaredNormBound(params)) < fast_norm_limit) {
      grad_norm = std::sqrt(optimizer.Step(params, 1.0));
    } else {
      grad_norm = GradNorm(params);
      finite = finite && std::isfinite(grad_norm);
      clipped = finite && grad_norm > config.clip_norm;
      if (finite) {
        optimizer.Step(params, clipped ? config.clip_norm / grad_norm : 1.0);
      } else {
        for (Parameter* p : params) {
          p->ZeroGrad();
        }
        ++summary.nonfinite_steps;
        nonfinite_counter->Increment();
      }
    }

    summary.final_loss = loss_value;
    summary.best_loss = std::min(summary.best_loss, loss_value);
    summary.final_grad_norm = grad_norm;
    if (clipped) {
      ++summary.clip_events;
    }
    ++summary.steps_run;
    if (config.record_loss) {
      summary.loss_history.push_back(loss_value);
    }
    if (step == 0) {
      summary.arena_allocs_after_warmup = tape.ArenaStats().heap_allocs;
    }
    summary.arena_allocs_final = tape.ArenaStats().heap_allocs;

    steps_counter->Increment();
    if (finite) {
      loss_hist->Observe(loss_value);
      grad_hist->Observe(grad_norm);
    }
    if (clipped) {
      clip_counter->Increment();
    }

    // Progress logging reads the same per-step values the metrics hooks
    // record, so the two reporting paths cannot disagree.
    if (config.log_every > 0 && (step + 1) % config.log_every == 0) {
      RPAS_LOG(kInfo) << "train step " << (step + 1) << "/" << config.steps
                      << " loss=" << summary.final_loss
                      << " grad_norm=" << summary.final_grad_norm
                      << " clipped=" << summary.clip_events;
    }
  }
  return summary;
}

}  // namespace rpas::nn
