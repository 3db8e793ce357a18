#ifndef RPAS_NN_OPTIMIZER_H_
#define RPAS_NN_OPTIMIZER_H_

#include <unordered_map>
#include <vector>

#include "autodiff/tape.h"

namespace rpas::nn {

using autodiff::Parameter;
using tensor::Matrix;

/// Global L2 norm of the given parameter gradients, summed sequentially
/// in parameter then element order (the order defines the rounding).
double GradNorm(const std::vector<Parameter*>& params);

/// Clips the global L2 norm of the given parameter gradients to
/// `max_norm` (> 0); returns the pre-clip norm.
double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

/// Adam optimizer (Kingma & Ba). Moment buffers are keyed by Parameter
/// pointer, so one optimizer instance can drive a whole model.
class Adam {
 public:
  struct Options {
    double lr = 1e-3;  ///< paper fixes 1e-3 for all models (§IV-A)
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double weight_decay = 0.0;
  };

  Adam();
  explicit Adam(Options options);

  /// Applies one update using each parameter's current `grad`, then zeroes
  /// the gradients. Returns the gradients' sum of squares before the update,
  /// bit-identical to GradNorm(params)^2 before its square root.
  double Step(const std::vector<Parameter*>& params) {
    return Step(params, 1.0);
  }

  /// Same, with every gradient multiplied by `grad_scale` first — the
  /// global-norm clip factor, applied in the same pass as the update (one
  /// kernels::AdamUpdate call per parameter). The returned sum of squares
  /// is of the unscaled gradients.
  double Step(const std::vector<Parameter*>& params, double grad_scale);

  /// Learning-rate accessor (for schedules).
  double lr() const { return options_.lr; }
  void set_lr(double lr) { options_.lr = lr; }

 private:
  struct Moments {
    Matrix m;
    Matrix v;
  };
  Options options_;
  int64_t t_ = 0;
  std::unordered_map<Parameter*, Moments> moments_;
};

/// Plain SGD with optional momentum; used in tests as a reference
/// optimizer.
class Sgd {
 public:
  explicit Sgd(double lr, double momentum = 0.0);

  void Step(const std::vector<Parameter*>& params);

 private:
  double lr_;
  double momentum_;
  std::unordered_map<Parameter*, Matrix> velocity_;
};

}  // namespace rpas::nn

#endif  // RPAS_NN_OPTIMIZER_H_
