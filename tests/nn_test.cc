#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace rpas::nn {
namespace {

using autodiff::Parameter;
using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = scale * rng->Normal();
  }
  return m;
}

// ------------------------------------------------------------------- init ---

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Matrix w = XavierUniform(10, 20, &rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w[i]), bound);
  }
}

TEST(InitTest, ZerosAndConstant) {
  EXPECT_DOUBLE_EQ(Zeros(2, 2)(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(Constant(2, 2, 3.0)(0, 1), 3.0);
}

// ------------------------------------------------------------------ Dense ---

TEST(DenseTest, ForwardAndApplyAgree) {
  Rng rng(2);
  Dense layer(3, 4, Dense::Activation::kTanh, &rng);
  Matrix x = RandomMatrix(5, 3, &rng);
  Tape tape;
  Var out = layer.Forward(&tape, tape.Constant(x));
  Matrix raw = layer.Apply(x);
  ASSERT_EQ(out.value().rows(), raw.rows());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
  }
}

TEST(DenseTest, AllActivationsAgreeAcrossPaths) {
  Rng rng(3);
  for (auto act : {Dense::Activation::kNone, Dense::Activation::kRelu,
                   Dense::Activation::kTanh, Dense::Activation::kSigmoid,
                   Dense::Activation::kSoftplus}) {
    Dense layer(2, 2, act, &rng);
    Matrix x = RandomMatrix(3, 2, &rng);
    Tape tape;
    Var out = layer.Forward(&tape, tape.Constant(x));
    Matrix raw = layer.Apply(x);
    for (size_t i = 0; i < raw.size(); ++i) {
      EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
    }
  }
}

TEST(DenseTest, ParamCount) {
  Rng rng(4);
  Dense layer(3, 5, Dense::Activation::kNone, &rng);
  EXPECT_EQ(layer.NumParams(), 3u * 5u + 5u);
  EXPECT_EQ(layer.Params().size(), 2u);
}

// --------------------------------------------------------------- LstmCell ---

TEST(LstmTest, TapeAndRawAgree) {
  Rng rng(5);
  LstmCell cell(3, 4, &rng);
  Matrix x1 = RandomMatrix(2, 3, &rng);
  Matrix x2 = RandomMatrix(2, 3, &rng);

  Tape tape;
  auto st = cell.ZeroState(&tape, 2);
  st = cell.Step(&tape, tape.Constant(x1), st);
  st = cell.Step(&tape, tape.Constant(x2), st);

  LstmCell::Runner runner(cell);
  auto raw = cell.ZeroRawState(2);
  LstmCell::RawState next;
  runner.Step(x1, raw, &next);
  runner.Step(x2, next, &raw);

  for (size_t i = 0; i < raw.h.size(); ++i) {
    EXPECT_NEAR(st.h.value()[i], raw.h[i], 1e-12);
    EXPECT_NEAR(st.c.value()[i], raw.c[i], 1e-12);
  }
}

TEST(LstmTest, StateShapes) {
  Rng rng(6);
  LstmCell cell(2, 8, &rng);
  auto raw = cell.ZeroRawState(4);
  EXPECT_EQ(raw.h.rows(), 4u);
  EXPECT_EQ(raw.h.cols(), 8u);
  LstmCell::Runner runner(cell);
  LstmCell::RawState next;
  runner.Step(RandomMatrix(4, 2, &rng), raw, &next);
  EXPECT_EQ(next.h.rows(), 4u);
  EXPECT_EQ(next.c.rows(), 4u);
  EXPECT_EQ(next.c.cols(), 8u);
}

TEST(LstmTest, HiddenStateBounded) {
  // h = o * tanh(c) is always in (-1, 1).
  Rng rng(7);
  LstmCell cell(2, 4, &rng);
  LstmCell::Runner runner(cell);
  auto raw = cell.ZeroRawState(1);
  LstmCell::RawState next;
  for (int t = 0; t < 50; ++t) {
    runner.Step(RandomMatrix(1, 2, &rng, 3.0), raw, &next);
    std::swap(raw, next);
    for (size_t i = 0; i < raw.h.size(); ++i) {
      EXPECT_LT(std::fabs(raw.h[i]), 1.0);
    }
  }
}

// A cell state whose shape disagrees with the batch must fail the shape
// check, not read past the end of the smaller buffer.
TEST(LstmDeathTest, RawStepRejectsMismatchedState) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(9);
  LstmCell cell(3, 4, &rng);
  LstmCell::Runner runner(cell);
  LstmCell::RawState next;
  const Matrix x(5, 3);
  const LstmCell::RawState short_c{Matrix(5, 4), Matrix(1, 4)};
  EXPECT_DEATH(runner.Step(x, short_c, &next), "shape mismatch");
  const LstmCell::RawState short_h{Matrix(1, 4), Matrix(5, 4)};
  EXPECT_DEATH(runner.Step(x, short_h, &next), "shape mismatch");
  const LstmCell::RawState wide_c{Matrix(5, 4), Matrix(5, 5)};
  EXPECT_DEATH(runner.Step(x, wide_c, &next), "shape mismatch");
}

TEST(LstmDeathTest, QuantizedRawStepRejectsMismatchedState) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(10);
  LstmCell cell(3, 4, &rng);
  // f32 payloads of the cell's own weights.
  const std::vector<Parameter*> params = cell.Params();
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<tensor::QTensorView> views;
  for (size_t i = 0; i < 2; ++i) {
    const Matrix& w = params[i]->value;
    payloads.emplace_back(tensor::PayloadBytes(tensor::DType::kF32, w.size()));
    tensor::EncodePayload(tensor::DType::kF32, w.data(), w.size(),
                          payloads.back().data());
  }
  for (size_t i = 0; i < 2; ++i) {
    const Matrix& w = params[i]->value;
    views.push_back({tensor::DType::kF32, w.rows(), w.cols(),
                     payloads[i].data(), payloads[i].size()});
  }
  ASSERT_TRUE(cell.SetQuantizedWeights(views[0], views[1]).ok());
  LstmCell::Runner runner(cell);
  LstmCell::RawState next;
  const Matrix x(5, 3);
  const LstmCell::RawState short_h{Matrix(1, 4), Matrix(5, 4)};
  EXPECT_DEATH(runner.Step(x, short_h, &next), "shape mismatch");
  const LstmCell::RawState short_c{Matrix(5, 4), Matrix(1, 4)};
  EXPECT_DEATH(runner.Step(x, short_c, &next), "shape mismatch");
}

TEST(LstmDeathTest, TapeStepRejectsMismatchedState) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(11);
  LstmCell cell(3, 4, &rng);
  Tape tape;
  const Var x = tape.Constant(Matrix(5, 3));
  const LstmCell::State short_c{tape.Constant(Matrix(5, 4)),
                                tape.Constant(Matrix(1, 4))};
  EXPECT_DEATH(cell.Step(&tape, x, short_c), "shape mismatch");
  const LstmCell::State short_h{tape.Constant(Matrix(1, 4)),
                                tape.Constant(Matrix(5, 4))};
  EXPECT_DEATH(cell.Step(&tape, x, short_h), "shape mismatch");
}

TEST(LstmTest, GradientsFlowThroughTime) {
  Rng rng(8);
  LstmCell cell(2, 3, &rng);
  Matrix x = RandomMatrix(1, 2, &rng);
  Tape tape;
  auto st = cell.ZeroState(&tape, 1);
  for (int t = 0; t < 5; ++t) {
    st = cell.Step(&tape, tape.Constant(x), st);
  }
  Var loss = tape.Sum(tape.Square(st.h));
  tape.Backward(loss);
  double grad_norm = 0.0;
  for (Parameter* p : cell.Params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      grad_norm += p->grad[i] * p->grad[i];
    }
  }
  EXPECT_GT(grad_norm, 0.0);
}

// -------------------------------------------------------------- LayerNorm ---

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(4);
  Matrix x{{1.0, 2.0, 3.0, 4.0}, {10.0, 10.0, 30.0, 30.0}};
  Matrix out = ln.Apply(x);
  for (size_t r = 0; r < out.rows(); ++r) {
    double mean = 0.0;
    for (size_t c = 0; c < out.cols(); ++c) {
      mean += out(r, c);
    }
    EXPECT_NEAR(mean / 4.0, 0.0, 1e-9);
  }
}

TEST(LayerNormTest, ForwardAndApplyAgree) {
  Rng rng(9);
  LayerNorm ln(5);
  Matrix x = RandomMatrix(3, 5, &rng, 2.0);
  Tape tape;
  Var out = ln.Forward(&tape, tape.Constant(x));
  Matrix raw = ln.Apply(x);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
  }
}

TEST(LayerNormTest, GradientCheck) {
  Rng rng(10);
  Parameter input(RandomMatrix(2, 4, &rng));
  LayerNorm ln(4);
  std::vector<Parameter*> params = {&input};
  for (Parameter* p : ln.Params()) {
    params.push_back(p);
  }
  for (Parameter* p : params) {
    p->ZeroGrad();
  }
  Matrix weight = RandomMatrix(2, 4, &rng);
  auto graph = [&](Tape* t) {
    return t->Sum(
        t->Mul(ln.Forward(t, t->Bind(&input)), t->Constant(weight)));
  };
  Tape tape;
  Var loss = graph(&tape);
  tape.Backward(loss);
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      const double orig = p->value[i];
      const double h = 1e-6;
      p->value[i] = orig + h;
      Tape t_up;
      const double up = graph(&t_up).value()(0, 0);
      p->value[i] = orig - h;
      Tape t_down;
      const double down = graph(&t_down).value()(0, 0);
      p->value[i] = orig;
      EXPECT_NEAR(p->grad[i], (up - down) / (2.0 * h), 1e-5);
    }
  }
}

// ---------------------------------------------------- GatedResidualNetwork ---

TEST(GrnTest, ForwardAndApplyAgree) {
  Rng rng(11);
  GatedResidualNetwork grn(6, 8, 4, &rng);
  Matrix x = RandomMatrix(3, 6, &rng);
  Tape tape;
  Var out = grn.Forward(&tape, tape.Constant(x));
  Matrix raw = grn.Apply(x);
  ASSERT_EQ(raw.cols(), 4u);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
  }
}

TEST(GrnTest, SameDimSkipsProjection) {
  Rng rng(12);
  GatedResidualNetwork grn(4, 8, 4, &rng);
  Matrix x = RandomMatrix(2, 4, &rng);
  Matrix out = grn.Apply(x);
  EXPECT_EQ(out.cols(), 4u);
}

// -------------------------------------------------------------- Attention ---

TEST(AttentionTest, UniformKeysGiveMeanOfValues) {
  // With all keys identical the attention weights are uniform, so the
  // output equals the mean of the value rows.
  Matrix q{{1.0, 0.0}};
  Matrix k{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  Matrix v{{3.0, 0.0}, {6.0, 3.0}, {0.0, 0.0}};
  Matrix out = ScaledDotAttention(q, k, v);
  EXPECT_NEAR(out(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(out(0, 1), 1.0, 1e-12);
}

TEST(AttentionTest, TapeAndRawAgree) {
  Rng rng(13);
  Matrix q = RandomMatrix(4, 6, &rng);
  Matrix k = RandomMatrix(7, 6, &rng);
  Matrix v = RandomMatrix(7, 6, &rng);
  Tape tape;
  Var out = ScaledDotAttention(&tape, tape.Constant(q), tape.Constant(k),
                               tape.Constant(v));
  Matrix raw = ScaledDotAttention(q, k, v);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
  }
}

TEST(AttentionTest, InterpretableMhaForwardApplyAgree) {
  Rng rng(14);
  InterpretableMultiHeadAttention mha(8, 2, &rng);
  Matrix q = RandomMatrix(3, 8, &rng);
  Matrix kv = RandomMatrix(5, 8, &rng);
  Tape tape;
  Var out = mha.Forward(&tape, tape.Constant(q), tape.Constant(kv));
  Matrix raw = mha.Apply(q, kv);
  ASSERT_EQ(raw.rows(), 3u);
  ASSERT_EQ(raw.cols(), 8u);
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(out.value()[i], raw[i], 1e-12);
  }
}

TEST(AttentionTest, MhaGradientsFlow) {
  Rng rng(15);
  InterpretableMultiHeadAttention mha(4, 2, &rng);
  Matrix q = RandomMatrix(2, 4, &rng);
  Matrix kv = RandomMatrix(3, 4, &rng);
  Tape tape;
  Var out = mha.Forward(&tape, tape.Constant(q), tape.Constant(kv));
  tape.Backward(tape.Sum(tape.Square(out)));
  double norm = 0.0;
  for (Parameter* p : mha.Params()) {
    for (size_t i = 0; i < p->grad.size(); ++i) {
      norm += p->grad[i] * p->grad[i];
    }
  }
  EXPECT_GT(norm, 0.0);
}

// ----------------------------------------------------------------- Losses ---

TEST(LossTest, MseKnownValue) {
  Tape tape;
  Var pred = tape.Constant(Matrix{{1.0, 2.0}});
  Var target = tape.Constant(Matrix{{3.0, 2.0}});
  Var loss = MseLoss(&tape, pred, target);
  EXPECT_DOUBLE_EQ(loss.value()(0, 0), 2.0);  // (4 + 0) / 2
}

TEST(LossTest, GaussianNllMatchesFormula) {
  Tape tape;
  const double mu = 1.0;
  const double sigma = 2.0;
  const double y = 2.5;
  Var loss = GaussianNllLoss(&tape, tape.Constant(Matrix{{mu}}),
                             tape.Constant(Matrix{{sigma}}),
                             tape.Constant(Matrix{{y}}));
  const double z = (y - mu) / sigma;
  const double expected =
      0.5 * std::log(2.0 * M_PI) + std::log(sigma) + 0.5 * z * z;
  EXPECT_NEAR(loss.value()(0, 0), expected, 1e-12);
}

TEST(LossTest, GaussianNllMinimizedAtTarget) {
  // NLL as a function of mu is minimized when mu == y.
  Tape t1;
  Var at_target = GaussianNllLoss(&t1, t1.Constant(Matrix{{5.0}}),
                                  t1.Constant(Matrix{{1.0}}),
                                  t1.Constant(Matrix{{5.0}}));
  Tape t2;
  Var off_target = GaussianNllLoss(&t2, t2.Constant(Matrix{{4.0}}),
                                   t2.Constant(Matrix{{1.0}}),
                                   t2.Constant(Matrix{{5.0}}));
  EXPECT_LT(at_target.value()(0, 0), off_target.value()(0, 0));
}

TEST(LossTest, StudentTNllMatchesDistribution) {
  // Must equal -LogPdf of the location-scale Student-t.
  const double mu = 0.5;
  const double sigma = 1.5;
  const double dof = 4.0;
  const double y = 2.0;
  Tape tape;
  Var loss = StudentTNllLoss(&tape, tape.Constant(Matrix{{mu}}),
                             tape.Constant(Matrix{{sigma}}),
                             tape.Constant(Matrix{{y}}), dof);
  const double z = (y - mu) / sigma;
  const double expected = -(std::lgamma((dof + 1.0) / 2.0) -
                            std::lgamma(dof / 2.0) -
                            0.5 * std::log(dof * M_PI) - std::log(sigma) -
                            (dof + 1.0) / 2.0 * std::log1p(z * z / dof));
  EXPECT_NEAR(loss.value()(0, 0), expected, 1e-12);
}

TEST(LossTest, StudentTNllHandlesOutliersBetterThanGaussian) {
  // For a far outlier, Student-t NLL grows much slower (log vs quadratic) —
  // the paper's §III-B rationale for choosing it.
  Tape t1;
  const double outlier = 50.0;
  Var g = GaussianNllLoss(&t1, t1.Constant(Matrix{{0.0}}),
                          t1.Constant(Matrix{{1.0}}),
                          t1.Constant(Matrix{{outlier}}));
  Tape t2;
  Var st = StudentTNllLoss(&t2, t2.Constant(Matrix{{0.0}}),
                           t2.Constant(Matrix{{1.0}}),
                           t2.Constant(Matrix{{outlier}}), 4.0);
  EXPECT_LT(st.value()(0, 0), g.value()(0, 0) / 10.0);
}

TEST(LossTest, QuantileGridLossKnownValue) {
  // One row, grid {0.5}: pinball(0.5) = 0.5 * |y - yhat|; loss sums over
  // quantiles and averages rows.
  Tape tape;
  Var pred = tape.Constant(Matrix{{3.0}});
  Var target = tape.Constant(Matrix{{5.0}});
  Var loss = QuantileGridLoss(&tape, pred, target, {0.5});
  EXPECT_DOUBLE_EQ(loss.value()(0, 0), 1.0);
}

TEST(LossTest, QuantileGridLossAsymmetry) {
  // tau = 0.9 penalizes under-prediction 9x more than over-prediction.
  Tape t1;
  Var under = QuantileGridLoss(&t1, t1.Constant(Matrix{{0.0}}),
                               t1.Constant(Matrix{{1.0}}), {0.9});
  Tape t2;
  Var over = QuantileGridLoss(&t2, t2.Constant(Matrix{{1.0}}),
                              t2.Constant(Matrix{{0.0}}), {0.9});
  EXPECT_NEAR(under.value()(0, 0) / over.value()(0, 0), 9.0, 1e-9);
}

TEST(LossTest, QuantileGridLossGradientCheck) {
  Rng rng(16);
  Parameter pred(RandomMatrix(4, 3, &rng));
  Matrix target = RandomMatrix(4, 1, &rng);
  const std::vector<double> taus = {0.1, 0.5, 0.9};
  pred.ZeroGrad();
  auto graph = [&](Tape* t) {
    return QuantileGridLoss(t, t->Bind(&pred), t->Constant(target), taus);
  };
  Tape tape;
  tape.Backward(graph(&tape));
  for (size_t i = 0; i < pred.value.size(); ++i) {
    const double orig = pred.value[i];
    const double h = 1e-6;
    pred.value[i] = orig + h;
    Tape up_tape;
    const double up = graph(&up_tape).value()(0, 0);
    pred.value[i] = orig - h;
    Tape down_tape;
    const double down = graph(&down_tape).value()(0, 0);
    pred.value[i] = orig;
    EXPECT_NEAR(pred.grad[i], (up - down) / (2.0 * h), 1e-5);
  }
}

// -------------------------------------------------------------- Optimizer ---

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Parameter p(Matrix{{3.0, 4.0}});
  p.grad(0, 0) = 3.0;
  p.grad(0, 1) = 4.0;  // norm 5
  const double before = ClipGradNorm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(before, 5.0);
  EXPECT_NEAR(std::hypot(p.grad(0, 0), p.grad(0, 1)), 1.0, 1e-12);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Parameter p(Matrix{{1.0}});
  p.grad(0, 0) = 0.5;
  ClipGradNorm({&p}, 10.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.5);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // min (w - 3)^2.
  Parameter w(Matrix{{0.0}});
  Adam adam(Adam::Options{.lr = 0.1});
  for (int step = 0; step < 500; ++step) {
    Tape tape;
    Var loss = tape.Square(tape.AddScalar(tape.Bind(&w), -3.0));
    tape.Backward(loss);
    adam.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 3.0, 1e-3);
}

TEST(OptimizerTest, AdamZeroesGradAfterStep) {
  Parameter w(Matrix{{1.0}});
  w.grad(0, 0) = 2.0;
  Adam adam;
  adam.Step({&w});
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.0);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Parameter w(Matrix{{10.0}});
  Sgd sgd(0.1, 0.5);
  for (int step = 0; step < 300; ++step) {
    Tape tape;
    Var loss = tape.Square(tape.AddScalar(tape.Bind(&w), -2.0));
    tape.Backward(loss);
    sgd.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 2.0, 1e-3);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Parameter w(Matrix{{5.0}});
  Adam adam(Adam::Options{.lr = 0.05, .weight_decay = 1.0});
  for (int step = 0; step < 400; ++step) {
    // Zero data gradient: only weight decay acts.
    w.ZeroGrad();
    adam.Step({&w});
  }
  EXPECT_LT(std::fabs(w.value(0, 0)), 0.5);
}

// ---------------------------------------------------------------- Trainer ---

TEST(TrainerTest, LearnsLinearRegression) {
  // y = x * [2, -1]^T + 0.5.
  Rng data_rng(17);
  Matrix x = RandomMatrix(64, 2, &data_rng);
  Matrix y(64, 1);
  for (size_t r = 0; r < 64; ++r) {
    y(r, 0) = 2.0 * x(r, 0) - 1.0 * x(r, 1) + 0.5;
  }
  Rng init_rng(18);
  Dense layer(2, 1, Dense::Activation::kNone, &init_rng);

  TrainConfig config;
  config.steps = 400;
  config.lr = 0.05;
  auto summary = TrainLoop(config, layer.Params(), [&](Tape* t, Rng*) {
    Var pred = layer.Forward(t, t->Constant(x));
    return MseLoss(t, pred, t->Constant(y));
  });
  EXPECT_LT(summary.final_loss, 1e-4);
  EXPECT_EQ(summary.steps_run, 400);
}

TEST(TrainerTest, LearnsNonlinearFunction) {
  // y = tanh(x0) * 2 needs the hidden layer.
  Rng data_rng(19);
  Matrix x = RandomMatrix(128, 1, &data_rng);
  Matrix y(128, 1);
  for (size_t r = 0; r < 128; ++r) {
    y(r, 0) = 2.0 * std::tanh(3.0 * x(r, 0));
  }
  Rng init_rng(20);
  Dense l1(1, 16, Dense::Activation::kTanh, &init_rng);
  Dense l2(16, 1, Dense::Activation::kNone, &init_rng);
  std::vector<Parameter*> params;
  for (auto* p : l1.Params()) params.push_back(p);
  for (auto* p : l2.Params()) params.push_back(p);

  TrainConfig config;
  config.steps = 800;
  config.lr = 0.01;
  auto summary = TrainLoop(config, params, [&](Tape* t, Rng*) {
    Var pred = l2.Forward(t, l1.Forward(t, t->Constant(x)));
    return MseLoss(t, pred, t->Constant(y));
  });
  EXPECT_LT(summary.final_loss, 0.01);
}

TEST(TrainerTest, QuantileHeadsLearnDistinctQuantiles) {
  // Data: y ~ N(0, 1). A constant predictor per quantile trained with
  // pinball loss must converge to the respective normal quantiles.
  Rng data_rng(21);
  Matrix y(512, 1);
  for (size_t r = 0; r < 512; ++r) {
    y(r, 0) = data_rng.Normal();
  }
  Parameter heads(Matrix(1, 3));  // predicts quantiles 0.1, 0.5, 0.9
  const std::vector<double> taus = {0.1, 0.5, 0.9};

  TrainConfig config;
  config.steps = 1500;
  config.lr = 0.02;
  TrainLoop(config, {&heads}, [&](Tape* t, Rng*) {
    // Broadcast the constant heads across all rows.
    Var ones = t->Constant(Matrix(512, 1, 1.0));
    Var pred = t->MatMul(ones, t->Bind(&heads));
    return QuantileGridLoss(t, pred, t->Constant(y), taus);
  });
  EXPECT_NEAR(heads.value(0, 0), -1.2816, 0.15);
  EXPECT_NEAR(heads.value(0, 1), 0.0, 0.15);
  EXPECT_NEAR(heads.value(0, 2), 1.2816, 0.15);
}

TEST(TrainerTest, RecordLossCapturesTrajectoryAndMetricsAgree) {
  Rng data_rng(22);
  Matrix x = RandomMatrix(64, 2, &data_rng);
  Matrix y(64, 1);
  for (size_t r = 0; r < 64; ++r) {
    y(r, 0) = x(r, 0) - 0.5 * x(r, 1);
  }
  Rng init_rng(23);
  Dense layer(2, 1, Dense::Activation::kNone, &init_rng);

  obs::MetricsRegistry registry;
  TrainConfig config;
  config.steps = 50;
  config.lr = 0.05;
  config.record_loss = true;
  config.metrics = &registry;
  auto summary = TrainLoop(config, layer.Params(), [&](Tape* t, Rng*) {
    Var pred = layer.Forward(t, t->Constant(x));
    return MseLoss(t, pred, t->Constant(y));
  });

  // The recorded trajectory and the summary scalars are the same data.
  ASSERT_EQ(summary.loss_history.size(), 50u);
  EXPECT_DOUBLE_EQ(summary.loss_history.back(), summary.final_loss);
  EXPECT_DOUBLE_EQ(*std::min_element(summary.loss_history.begin(),
                                     summary.loss_history.end()),
                   summary.best_loss);
  EXPECT_GT(summary.final_grad_norm, 0.0);

  // The metrics hooks observed exactly one sample per step, and the clip
  // counter matches the summary's clip_events.
  EXPECT_EQ(registry.GetCounter("nn.train.steps")->value(), 50);
  EXPECT_EQ(registry.GetCounter("nn.train.clip_events")->value(),
            summary.clip_events);
  EXPECT_EQ(registry.GetHistogram("nn.train.loss")->count(), 50u);
  EXPECT_EQ(registry.GetHistogram("nn.train.grad_norm")->count(), 50u);
}

TEST(TrainerTest, LossHistoryStaysEmptyByDefault) {
  Rng data_rng(24);
  Matrix x = RandomMatrix(16, 2, &data_rng);
  Matrix y(16, 1);
  for (size_t r = 0; r < 16; ++r) {
    y(r, 0) = x(r, 0);
  }
  Rng init_rng(25);
  Dense layer(2, 1, Dense::Activation::kNone, &init_rng);
  TrainConfig config;
  config.steps = 5;
  auto summary = TrainLoop(config, layer.Params(), [&](Tape* t, Rng*) {
    Var pred = layer.Forward(t, t->Constant(x));
    return MseLoss(t, pred, t->Constant(y));
  });
  EXPECT_EQ(summary.steps_run, 5);
  EXPECT_TRUE(summary.loss_history.empty());
}

// ---------------------------------------------------- Fused training step ---

using tensor::kernels::LevelName;
using tensor::kernels::LevelSupported;
using tensor::kernels::ScopedSimdLevel;
using tensor::kernels::SimdLevel;

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    if (LevelSupported(l)) {
      levels.push_back(l);
    }
  }
  return levels;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// The elementwise compositions the fused NLL nodes replaced, kept verbatim
// as the bit-identity oracles.
Var OracleGaussianNll(Tape* tape, Var mu, Var sigma, Var target) {
  Var z = tape->Div(tape->Sub(target, mu), sigma);
  Var nll = tape->Add(tape->Log(sigma), tape->Scale(tape->Square(z), 0.5));
  nll = tape->AddScalar(nll, 0.5 * std::log(2.0 * M_PI));
  return tape->Mean(nll);
}

Var OracleStudentTNll(Tape* tape, Var mu, Var sigma, Var target, double dof) {
  const double constant = -std::lgamma((dof + 1.0) / 2.0) +
                          std::lgamma(dof / 2.0) +
                          0.5 * std::log(dof * M_PI);
  Var z = tape->Div(tape->Sub(target, mu), sigma);
  Var log_term =
      tape->Log(tape->AddScalar(tape->Scale(tape->Square(z), 1.0 / dof), 1.0));
  Var nll = tape->Add(tape->Log(sigma),
                      tape->Scale(log_term, (dof + 1.0) / 2.0));
  nll = tape->AddScalar(nll, constant);
  return tape->Mean(nll);
}

/// Seeded likelihood inputs cycling through ordinary draws, tiny sigma,
/// huge residuals, and signed-zero residuals.
struct NllCase {
  Parameter mu;
  Parameter sigma;
  Parameter target;
};

NllCase MakeNllCase(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix mu(rows, cols);
  Matrix sigma(rows, cols);
  Matrix target(rows, cols);
  for (size_t i = 0; i < mu.size(); ++i) {
    mu[i] = 3.0 * rng.Normal();
    sigma[i] = 0.05 + 2.0 * rng.Uniform();
    target[i] = mu[i] + sigma[i] * rng.Normal();
    switch (i % 6) {
      case 1:
        sigma[i] = 1e-3 * rng.Uniform() + 1e-12;  // tiny sigma
        break;
      case 2:
        target[i] = mu[i] + 1e7 * rng.Normal();  // huge residual
        break;
      case 3:
        mu[i] = 0.0;
        target[i] = -0.0;  // residual -0
        break;
      case 4:
        mu[i] = -0.0;
        target[i] = -0.0;  // residual +0
        break;
      default:
        break;
    }
  }
  return NllCase{Parameter(mu), Parameter(sigma), Parameter(target)};
}

using NllFn = Var (*)(Tape*, Var, Var, Var);

/// Loss value and input gradients of `nll` inside a graph that scales the
/// loss (incoming grad != 1) and also consumes mu and sigma after it, so
/// the NLL backward accumulates into grads that are already nonzero.
struct NllResult {
  double loss = 0.0;
  double nll = 0.0;
  Matrix g_mu, g_sigma, g_target;
};

NllResult RunNll(NllFn nll_fn, size_t rows, size_t cols, uint64_t seed,
                 bool target_grad) {
  NllCase c = MakeNllCase(rows, cols, seed);
  Tape tape;
  Var mu = tape.Bind(&c.mu);
  Var sigma = tape.Bind(&c.sigma);
  Var target =
      target_grad ? tape.Bind(&c.target) : tape.Constant(c.target.value);
  Var nll = nll_fn(&tape, mu, sigma, target);
  Var loss =
      tape.Add(tape.Scale(nll, 0.37), tape.Sum(tape.Mul(mu, sigma)));
  tape.Backward(loss);
  return NllResult{loss.value()(0, 0), nll.value()(0, 0), c.mu.grad,
                   c.sigma.grad, c.target.grad};
}

void ExpectSameBits(const NllResult& want, const NllResult& got,
                    const std::string& where) {
  EXPECT_TRUE(SameBits(want.nll, got.nll))
      << where << " nll " << want.nll << " vs " << got.nll;
  EXPECT_TRUE(SameBits(want.loss, got.loss)) << where << " loss";
  for (size_t i = 0; i < want.g_mu.size(); ++i) {
    EXPECT_TRUE(SameBits(want.g_mu[i], got.g_mu[i]))
        << where << " d/dmu[" << i << "] " << want.g_mu[i] << " vs "
        << got.g_mu[i];
    EXPECT_TRUE(SameBits(want.g_sigma[i], got.g_sigma[i]))
        << where << " d/dsigma[" << i << "] " << want.g_sigma[i] << " vs "
        << got.g_sigma[i];
    EXPECT_TRUE(SameBits(want.g_target[i], got.g_target[i]))
        << where << " d/dtarget[" << i << "]";
  }
}

constexpr size_t kNllShapes[][2] = {{1, 1}, {7, 1}, {3, 5}, {16, 12}};

TEST(FusedNllTest, GaussianMatchesCompositionBitwiseAtEveryLevel) {
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (const auto& shape : kNllShapes) {
      for (bool target_grad : {false, true}) {
        const uint64_t seed = 100 + shape[0] * 16 + shape[1];
        const NllResult want = RunNll(&OracleGaussianNll, shape[0], shape[1],
                                      seed, target_grad);
        const NllResult got = RunNll(&GaussianNllLoss, shape[0], shape[1],
                                     seed, target_grad);
        ExpectSameBits(want, got,
                       std::string(LevelName(level)) + " " +
                           std::to_string(shape[0]) + "x" +
                           std::to_string(shape[1]));
      }
    }
  }
}

template <int kDofTimes2>
Var OracleStudentT(Tape* t, Var mu, Var sigma, Var target) {
  return OracleStudentTNll(t, mu, sigma, target, kDofTimes2 / 2.0);
}
template <int kDofTimes2>
Var FusedStudentT(Tape* t, Var mu, Var sigma, Var target) {
  return StudentTNllLoss(t, mu, sigma, target, kDofTimes2 / 2.0);
}

TEST(FusedNllTest, StudentTMatchesCompositionBitwiseAtEveryLevel) {
  const std::pair<NllFn, NllFn> dofs[] = {
      {&OracleStudentT<2>, &FusedStudentT<2>},    // dof 1 (Cauchy)
      {&OracleStudentT<8>, &FusedStudentT<8>},    // dof 4 (DeepAR default)
      {&OracleStudentT<61>, &FusedStudentT<61>},  // dof 30.5
  };
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (const auto& [oracle, fused] : dofs) {
      for (const auto& shape : kNllShapes) {
        for (bool target_grad : {false, true}) {
          const uint64_t seed = 200 + shape[0] * 16 + shape[1];
          const NllResult want =
              RunNll(oracle, shape[0], shape[1], seed, target_grad);
          const NllResult got =
              RunNll(fused, shape[0], shape[1], seed, target_grad);
          ExpectSameBits(want, got,
                         std::string(LevelName(level)) + " " +
                             std::to_string(shape[0]) + "x" +
                             std::to_string(shape[1]));
        }
      }
    }
  }
}

TEST(FusedNllTest, MlpGaussianTrainingKeepsArenaFlat) {
  Rng data_rng(31);
  Matrix x = RandomMatrix(16, 6, &data_rng);
  Rng init_rng(32);
  Dense hidden(6, 8, Dense::Activation::kRelu, &init_rng);
  Dense head(8, 2 * 3, Dense::Activation::kNone, &init_rng);
  std::vector<Parameter*> params = hidden.Params();
  for (Parameter* p : head.Params()) {
    params.push_back(p);
  }
  TrainConfig config;
  config.steps = 12;
  auto summary = TrainLoop(config, params, [&](Tape* t, Rng* rng) {
    Var xv = t->Input(16, 6);
    Var y = t->Input(16, 3);
    Matrix& xm = *t->MutableValue(xv);
    Matrix& ym = *t->MutableValue(y);
    for (size_t r = 0; r < 16; ++r) {
      for (size_t c = 0; c < 6; ++c) {
        xm(r, c) = x(r, c);
      }
      for (size_t c = 0; c < 3; ++c) {
        ym(r, c) = x(r, c) + 0.1 * rng->Normal();
      }
    }
    Var out = head.Forward(t, hidden.Forward(t, xv));
    Var sigma = t->AddScalar(t->Softplus(t->SliceCols(out, 3, 6)), 1e-3);
    return GaussianNllLoss(t, t->SliceCols(out, 0, 3), sigma, y);
  });
  EXPECT_EQ(summary.steps_run, 12);
  EXPECT_EQ(summary.arena_allocs_after_warmup, summary.arena_allocs_final);
}

TEST(FusedNllTest, DeepArStudentTTrainingKeepsArenaFlat) {
  Rng init_rng(33);
  LstmCell cell(1, 6, &init_rng);
  Dense mu_head(6, 1, Dense::Activation::kNone, &init_rng);
  Dense sigma_head(6, 1, Dense::Activation::kNone, &init_rng);
  std::vector<Parameter*> params = cell.Params();
  for (Dense* d : {&mu_head, &sigma_head}) {
    for (Parameter* p : d->Params()) {
      params.push_back(p);
    }
  }
  const size_t batch = 5;
  TrainConfig config;
  config.steps = 10;
  auto summary = TrainLoop(config, params, [&](Tape* t, Rng* rng) {
    LstmCell::State state = cell.ZeroState(t, batch);
    Var total;
    for (size_t step = 0; step < 8; ++step) {
      Var x = t->Input(batch, 1);
      Var y = t->Input(batch, 1);
      for (size_t r = 0; r < batch; ++r) {
        const double phase = 0.5 * static_cast<double>(step + r);
        (*t->MutableValue(x))(r, 0) = std::sin(phase);
        (*t->MutableValue(y))(r, 0) =
            std::sin(phase + 0.5) + 0.05 * rng->Normal();
      }
      state = cell.Step(t, x, state);
      Var sigma = t->AddScalar(
          t->Softplus(sigma_head.Forward(t, state.h)), 1e-3);
      Var nll =
          StudentTNllLoss(t, mu_head.Forward(t, state.h), sigma, y, 4.0);
      total = step == 0 ? nll : t->Add(total, nll);
    }
    return t->Scale(total, 1.0 / 8.0);
  });
  EXPECT_EQ(summary.steps_run, 10);
  EXPECT_EQ(summary.arena_allocs_after_warmup, summary.arena_allocs_final);
}

TEST(TrainerTest, NonFiniteStepsAreSkippedAndCounted) {
  Rng data_rng(34);
  Matrix x = RandomMatrix(8, 2, &data_rng);
  Rng init_rng(35);
  Dense layer(2, 1, Dense::Activation::kNone, &init_rng);
  TrainConfig config;
  config.steps = 8;
  config.lr = 0.05;
  int step = 0;
  std::vector<Matrix> weights_at_step;
  auto summary = TrainLoop(config, layer.Params(), [&](Tape* t, Rng*) {
    weights_at_step.push_back(layer.Params()[0]->value);
    Matrix xs = x;
    if (step == 2 || step == 5) {
      xs(3, 1) = std::numeric_limits<double>::quiet_NaN();  // bad telemetry
    }
    ++step;
    Var pred = layer.Forward(t, t->Constant(xs));
    return MseLoss(t, pred, t->Constant(Matrix(8, 1)));
  });
  weights_at_step.push_back(layer.Params()[0]->value);
  EXPECT_EQ(summary.steps_run, 8);
  EXPECT_EQ(summary.nonfinite_steps, 2);
  for (Parameter* p : layer.Params()) {
    for (size_t i = 0; i < p->size(); ++i) {
      EXPECT_TRUE(std::isfinite(p->value[i]));
      EXPECT_EQ(p->grad[i], 0.0);
    }
  }
  for (int k = 0; k < 8; ++k) {
    const bool skipped = k == 2 || k == 5;
    const bool unchanged =
        weights_at_step[k][0] == weights_at_step[k + 1][0] &&
        weights_at_step[k][1] == weights_at_step[k + 1][1];
    EXPECT_EQ(unchanged, skipped) << "step " << k;
  }
}

// ------------------------------------------------ fused clip-norm parity ---

/// TrainLoop as it was before the clip norm was fused into the update, kept
/// as the bit-identity oracle: GradNorm first, then Adam::Step(scale) or
/// the skip path. `norms` receives every step's GradNorm.
TrainSummary LegacyTrainLoop(
    const TrainConfig& config, const std::vector<Parameter*>& params,
    const std::function<Var(Tape*, Rng*)>& loss_fn,
    std::vector<double>* norms) {
  Rng rng(config.seed);
  Adam optimizer(Adam::Options{.lr = config.lr});
  obs::MetricsRegistry* metrics = config.metrics;
  obs::Counter* steps_counter = metrics->GetCounter("nn.train.steps");
  obs::Counter* clip_counter = metrics->GetCounter("nn.train.clip_events");
  obs::Counter* nonfinite_counter =
      metrics->GetCounter("nn.train.nonfinite_steps");
  obs::Histogram* loss_hist = metrics->GetHistogram("nn.train.loss");
  obs::Histogram* grad_hist = metrics->GetHistogram("nn.train.grad_norm");
  TrainSummary summary;
  summary.best_loss = std::numeric_limits<double>::infinity();
  for (Parameter* p : params) {
    p->ZeroGrad();
  }
  Tape tape;
  for (int step = 0; step < config.steps; ++step) {
    tape.Reset();
    Var loss = loss_fn(&tape, &rng);
    const double loss_value = loss.value()(0, 0);
    tape.Backward(loss);
    const double grad_norm = GradNorm(params);
    norms->push_back(grad_norm);
    const bool finite = std::isfinite(loss_value) && std::isfinite(grad_norm);
    const bool clipped = finite && grad_norm > config.clip_norm;
    if (finite) {
      optimizer.Step(params, clipped ? config.clip_norm / grad_norm : 1.0);
    } else {
      for (Parameter* p : params) {
        p->ZeroGrad();
      }
      ++summary.nonfinite_steps;
      nonfinite_counter->Increment();
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
  }
  return summary;
}

struct ParityRun {
  TrainSummary summary;
  std::vector<double> weights;
  std::vector<double> norms;  ///< per-step GradNorm (legacy loop only)
  obs::MetricsRegistry metrics;
};

/// Trains a two-layer MLP for 40 steps on 8-row minibatches. Targets are
/// scaled by 20 on every third step (so the gradient norm swings across a
/// clip level) and set to NaN on `nan_steps`.
void RunParityMlp(double clip_norm, const std::vector<int>& nan_steps,
                  bool legacy, ParityRun* run) {
  Rng data_rng(61);
  const Matrix x = RandomMatrix(32, 6, &data_rng);
  Matrix y(32, 1);
  for (size_t r = 0; r < 32; ++r) {
    y(r, 0) = std::tanh(x(r, 0) - 0.5 * x(r, 3)) + 0.3 * x(r, 5);
  }
  Rng init_rng(62);
  Dense fc1(6, 16, Dense::Activation::kRelu, &init_rng);
  Dense fc2(16, 1, Dense::Activation::kNone, &init_rng);
  std::vector<Parameter*> params = fc1.Params();
  for (Parameter* p : fc2.Params()) {
    params.push_back(p);
  }
  TrainConfig config;
  config.steps = 40;
  config.lr = 0.01;
  config.clip_norm = clip_norm;
  config.record_loss = true;
  config.metrics = &run->metrics;
  int step = 0;
  auto loss_fn = [&](Tape* t, Rng* rng) {
    Matrix xs(8, 6);
    Matrix ys(8, 1);
    for (size_t r = 0; r < 8; ++r) {
      const size_t row = static_cast<size_t>(rng->UniformInt(32));
      for (size_t c = 0; c < 6; ++c) {
        xs(r, c) = x(row, c);
      }
      ys(r, 0) = y(row, 0) * (step % 3 == 2 ? 20.0 : 1.0);
    }
    if (std::find(nan_steps.begin(), nan_steps.end(), step) !=
        nan_steps.end()) {
      ys(4, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    ++step;
    Var hidden = fc1.Forward(t, t->Constant(xs));
    return MseLoss(t, fc2.Forward(t, hidden), t->Constant(ys));
  };
  run->summary = legacy ? LegacyTrainLoop(config, params, loss_fn, &run->norms)
                        : TrainLoop(config, params, loss_fn);
  for (Parameter* p : params) {
    run->weights.insert(run->weights.end(), p->value.data(),
                        p->value.data() + p->value.size());
  }
}

void ExpectSameHistogram(const obs::Histogram& a, const obs::Histogram& b,
                         const char* name) {
  EXPECT_EQ(a.count(), b.count()) << name;
  EXPECT_TRUE(SameBits(a.sum(), b.sum())) << name;
  EXPECT_TRUE(SameBits(a.min(), b.min())) << name;
  EXPECT_TRUE(SameBits(a.max(), b.max())) << name;
  ASSERT_EQ(a.NumBuckets(), b.NumBuckets()) << name;
  for (size_t i = 0; i < a.NumBuckets(); ++i) {
    EXPECT_EQ(a.BucketCount(i), b.BucketCount(i)) << name << " bucket " << i;
  }
}

void ExpectSameRun(ParityRun& want, ParityRun& got) {
  ASSERT_EQ(want.weights.size(), got.weights.size());
  for (size_t i = 0; i < want.weights.size(); ++i) {
    ASSERT_TRUE(SameBits(want.weights[i], got.weights[i])) << "weight " << i;
  }
  const TrainSummary& a = want.summary;
  const TrainSummary& b = got.summary;
  EXPECT_TRUE(SameBits(a.final_loss, b.final_loss));
  EXPECT_TRUE(SameBits(a.best_loss, b.best_loss));
  EXPECT_EQ(a.steps_run, b.steps_run);
  EXPECT_TRUE(SameBits(a.final_grad_norm, b.final_grad_norm));
  EXPECT_EQ(a.clip_events, b.clip_events);
  EXPECT_EQ(a.nonfinite_steps, b.nonfinite_steps);
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
  for (size_t i = 0; i < a.loss_history.size(); ++i) {
    EXPECT_TRUE(SameBits(a.loss_history[i], b.loss_history[i])) << i;
  }
  EXPECT_EQ(a.arena_allocs_after_warmup, b.arena_allocs_after_warmup);
  EXPECT_EQ(a.arena_allocs_final, b.arena_allocs_final);
  for (const char* name : {"nn.train.steps", "nn.train.clip_events",
                           "nn.train.nonfinite_steps"}) {
    EXPECT_EQ(want.metrics.GetCounter(name)->value(),
              got.metrics.GetCounter(name)->value())
        << name;
  }
  for (const char* name : {"nn.train.loss", "nn.train.grad_norm"}) {
    ExpectSameHistogram(*want.metrics.GetHistogram(name),
                        *got.metrics.GetHistogram(name), name);
  }
}

TEST(TrainerTest, FusedNormMatchesLegacyLoopBitwise) {
  // Step 0's norm does not depend on the clip level; using it as the clip
  // level puts that step's bound inside the fast path's 1e-6 margin.
  double first_norm = 0.0;
  {
    ParityRun probe;
    RunParityMlp(1e9, {}, /*legacy=*/true, &probe);
    first_norm = probe.norms[0];
  }
  struct Regime {
    const char* name;
    double clip_norm;
    std::vector<int> nan_steps;
  };
  const Regime regimes[] = {
      {"all-fast", 1e9, {}},
      {"all-fallback", 1e-3, {}},
      {"mixed", first_norm, {}},
      {"nan-targets", 10.0, {3, 7, 8, 20}},
  };
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (const Regime& regime : regimes) {
      SCOPED_TRACE(std::string(LevelName(level)) + " " + regime.name);
      ParityRun want;
      ParityRun got;
      RunParityMlp(regime.clip_norm, regime.nan_steps, /*legacy=*/true,
                   &want);
      RunParityMlp(regime.clip_norm, regime.nan_steps, /*legacy=*/false,
                   &got);
      ExpectSameRun(want, got);

      // The regime covers the paths it is named for.
      int fast = 0;
      int margin = 0;
      int clipped = 0;
      for (double norm : want.norms) {
        if (!std::isfinite(norm)) {
          continue;
        }
        if (norm > regime.clip_norm) {
          ++clipped;
        } else if (norm < regime.clip_norm * (1.0 - 1e-6)) {
          ++fast;
        } else {
          ++margin;
        }
      }
      const std::string name = regime.name;
      if (name == "all-fast") {
        EXPECT_EQ(fast, 40);
      } else if (name == "all-fallback") {
        EXPECT_EQ(clipped, 40);
      } else if (name == "mixed") {
        EXPECT_GT(fast, 0);
        EXPECT_GT(clipped, 0);
        EXPECT_EQ(margin, 1);
        EXPECT_TRUE(SameBits(want.norms[0], regime.clip_norm));
      } else {
        EXPECT_EQ(want.summary.nonfinite_steps, 4);
      }
    }
  }
}

}  // namespace
}  // namespace rpas::nn
