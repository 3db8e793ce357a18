#include "nn/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace rpas::nn {

namespace kernels = ::rpas::tensor::kernels;

double GradNorm(const std::vector<Parameter*>& params) {
  double sq = 0.0;
  for (Parameter* p : params) {
    const double* g = p->grad.data();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      sq += g[i] * g[i];
    }
  }
  return std::sqrt(sq);
}

double ClipGradNorm(const std::vector<Parameter*>& params, double max_norm) {
  RPAS_CHECK(max_norm > 0.0);
  const double norm = GradNorm(params);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (Parameter* p : params) {
      for (size_t i = 0; i < p->grad.size(); ++i) {
        p->grad[i] *= scale;
      }
    }
  }
  return norm;
}

Adam::Adam() : Adam(Options()) {}

Adam::Adam(Options options) : options_(options) {}

double Adam::Step(const std::vector<Parameter*>& params, double grad_scale) {
  ++t_;
  kernels::AdamStep step;
  step.lr = options_.lr;
  step.beta1 = options_.beta1;
  step.beta2 = options_.beta2;
  step.epsilon = options_.epsilon;
  step.weight_decay = options_.weight_decay;
  step.bias_correction1 =
      1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  step.bias_correction2 =
      1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  step.grad_scale = grad_scale;
  const kernels::SimdLevel level = kernels::ActiveLevel();
  double sq = 0.0;
  for (Parameter* p : params) {
    auto [it, inserted] = moments_.try_emplace(p);
    if (inserted) {
      it->second.m = Matrix(p->value.rows(), p->value.cols());
      it->second.v = Matrix(p->value.rows(), p->value.cols());
    }
    RPAS_DCHECK(p->grad.size() == p->value.size());
    sq = kernels::AdamUpdate(level, p->value.size(), step, p->value.data(),
                             p->grad.data(), it->second.m.data(),
                             it->second.v.data(), sq);
  }
  return sq;
}

Sgd::Sgd(double lr, double momentum) : lr_(lr), momentum_(momentum) {
  RPAS_CHECK(lr > 0.0);
  RPAS_CHECK(momentum >= 0.0 && momentum < 1.0);
}

void Sgd::Step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) {
    if (momentum_ > 0.0) {
      auto [it, inserted] = velocity_.try_emplace(p);
      if (inserted) {
        it->second = Matrix(p->value.rows(), p->value.cols());
      }
      Matrix& vel = it->second;
      for (size_t i = 0; i < p->value.size(); ++i) {
        vel[i] = momentum_ * vel[i] - lr_ * p->grad[i];
        p->value[i] += vel[i];
      }
    } else {
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->value[i] -= lr_ * p->grad[i];
      }
    }
    p->ZeroGrad();
  }
}

}  // namespace rpas::nn
