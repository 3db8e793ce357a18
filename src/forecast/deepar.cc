#include "forecast/deepar.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "dist/empirical.h"
#include "nn/checkpoint.h"
#include "nn/losses.h"
#include "ts/window.h"

namespace rpas::forecast {

using autodiff::Tape;
using autodiff::Var;
using tensor::Matrix;

namespace {
constexpr double kScaleEps = 1e-6;

double SoftplusScalar(double x) {
  return (x > 0.0 ? x : 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

/// Per-window mean-abs scale (DeepAR's standard per-item scaling).
double WindowScale(const std::vector<double>& context) {
  double mean_abs = 0.0;
  for (double v : context) {
    mean_abs += std::fabs(v);
  }
  mean_abs /= static_cast<double>(context.size());
  return std::max(mean_abs, kScaleEps);
}
}  // namespace

DeepArForecaster::DeepArForecaster(Options options)
    : options_(std::move(options)), sample_rng_(options_.seed ^ 0xD1CEu) {
  RPAS_CHECK(options_.context_length > 0 && options_.horizon > 0);
  RPAS_CHECK(options_.num_samples >= 2);
  if (options_.levels.empty()) {
    options_.levels = DefaultQuantileLevels();
  }
}

void DeepArForecaster::BuildModel() {
  Rng init_rng(options_.seed);
  lstm_ = std::make_unique<nn::LstmCell>(kInputDim, options_.hidden_dim,
                                         &init_rng);
  mu_head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1,
                                         nn::Dense::Activation::kNone,
                                         &init_rng);
  sigma_head_ = std::make_unique<nn::Dense>(options_.hidden_dim, 1,
                                            nn::Dense::Activation::kNone,
                                            &init_rng);
}

std::vector<autodiff::Parameter*> DeepArForecaster::AllParams() const {
  std::vector<autodiff::Parameter*> params;
  for (nn::Module* m : std::initializer_list<nn::Module*>{
           lstm_.get(), mu_head_.get(), sigma_head_.get()}) {
    for (auto* p : m->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

std::string DeepArForecaster::Signature() const {
  return StrFormat("DeepAR ctx=%zu h=%zu hidden=%zu head=%d",
                   options_.context_length, options_.horizon,
                   options_.hidden_dim, static_cast<int>(options_.head));
}

Status DeepArForecaster::Save(const std::string& path) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "DeepAR: cannot save an unfitted model");
  }
  return nn::SaveParameters(path, Signature(), AllParams());
}

Status DeepArForecaster::Load(const std::string& path) {
  BuildModel();
  RPAS_RETURN_IF_ERROR(nn::LoadParameters(path, Signature(), AllParams()));
  fitted_ = true;
  return Status::OK();
}

Status DeepArForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const nn::QuantizedCheckpoint> checkpoint) {
  if (checkpoint == nullptr) {
    return Status::InvalidArgument("DeepAR: null quantized checkpoint");
  }
  if (checkpoint->signature() != Signature()) {
    return Status::InvalidArgument(
        StrFormat("DeepAR: checkpoint signature '%s' does not match '%s'",
                  checkpoint->signature().c_str(), Signature().c_str()));
  }
  BuildModel();
  // Tensor order mirrors Save()/AllParams(): lstm (w_x, w_h, b), then
  // (weight, bias) for each head.
  constexpr size_t kExpected = 7;
  if (checkpoint->num_tensors() != kExpected) {
    return Status::InvalidArgument(
        StrFormat("DeepAR: checkpoint holds %zu tensors, expected %zu",
                  checkpoint->num_tensors(), kExpected));
  }
  RPAS_RETURN_IF_ERROR(lstm_->SetQuantizedWeights(
      checkpoint->tensor(0).view, checkpoint->tensor(1).view));
  RPAS_RETURN_IF_ERROR(
      nn::AssignDequantized(checkpoint->tensor(2), lstm_->Params()[2]));
  size_t idx = 3;
  for (nn::Dense* head : {mu_head_.get(), sigma_head_.get()}) {
    RPAS_RETURN_IF_ERROR(
        head->SetQuantizedWeights(checkpoint->tensor(idx++).view));
    RPAS_RETURN_IF_ERROR(
        nn::AssignDequantized(checkpoint->tensor(idx++), head->Params()[1]));
  }
  qckpt_ = std::move(checkpoint);
  fitted_ = true;
  return Status::OK();
}

nn::TrainSummary DeepArForecaster::RunTraining(
    const ts::WindowDataset& dataset, double step_minutes,
    const nn::TrainConfig& config) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  std::vector<autodiff::Parameter*> params = AllParams();

  auto loss_fn = [&, step_minutes](Tape* tape, Rng* rng) -> Var {
    const std::vector<size_t> indices =
        dataset.SampleIndices(options_.batch_size, rng);
    const size_t batch = indices.size();
    const size_t total = t_len + h;

    // Whole windows (context + target), per-window scaled.
    std::vector<std::vector<double>> scaled(batch);
    std::vector<size_t> begins(batch);
    for (size_t r = 0; r < batch; ++r) {
      const ts::Window& w = dataset[indices[r]];
      begins[r] = w.begin;
      const double scale = WindowScale(w.context);
      scaled[r].reserve(total);
      for (double v : w.context) {
        scaled[r].push_back(v / scale);
      }
      for (double v : w.target) {
        scaled[r].push_back(v / scale);
      }
    }

    // Teacher-forced unroll: at step t the input is the observed value at
    // t-1 plus calendar features of t; the head predicts the value at t.
    nn::LstmCell::State state = lstm_->ZeroState(tape, batch);
    Var total_nll;
    size_t terms = 0;
    for (size_t t = 1; t < total; ++t) {
      // Arena-backed leaves filled in place: the steady-state unroll reuses
      // the previous step's buffers instead of allocating fresh matrices.
      Var xv = tape->Input(batch, kInputDim);
      Var y = tape->Input(batch, 1);
      Matrix& x = *tape->MutableValue(xv);
      Matrix& target = *tape->MutableValue(y);
      for (size_t r = 0; r < batch; ++r) {
        x(r, 0) = scaled[r][t - 1];
        const auto tf = TimeFeatures(begins[r] + t, step_minutes);
        for (size_t j = 0; j < kNumTimeFeatures; ++j) {
          x(r, 1 + j) = tf[j];
        }
        target(r, 0) = scaled[r][t];
      }
      state = lstm_->Step(tape, xv, state);
      Var mu = mu_head_->Forward(tape, state.h);
      Var sigma = tape->AddScalar(
          tape->Softplus(sigma_head_->Forward(tape, state.h)),
          options_.min_sigma);
      Var nll = options_.head == Head::kStudentT
                    ? nn::StudentTNllLoss(tape, mu, sigma, y,
                                          options_.student_t_dof)
                    : nn::GaussianNllLoss(tape, mu, sigma, y);
      total_nll = terms == 0 ? nll : tape->Add(total_nll, nll);
      ++terms;
    }
    return tape->Scale(total_nll, 1.0 / static_cast<double>(terms));
  };

  return nn::TrainLoop(config, params, loss_fn);
}

Status DeepArForecaster::Fit(const ts::TimeSeries& train) {
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  ts::WindowDataset dataset(train, t_len, h, /*stride=*/1);
  if (dataset.empty()) {
    return Status::InvalidArgument("DeepAR: training series too short");
  }

  BuildModel();
  nn::TrainConfig config = options_.train;
  config.seed = options_.seed + 1;
  RunTraining(dataset, train.step_minutes, config);
  fitted_ = true;
  return Status::OK();
}

Result<Forecaster::IncrementalUpdateReport>
DeepArForecaster::IncrementalUpdate(const ts::TimeSeries& history,
                                    size_t new_points) {
  if (!fitted_) {
    return Status::FailedPrecondition("DeepAR: Fit() not called");
  }
  if (qckpt_ != nullptr) {
    return Status::FailedPrecondition(
        "DeepAR: model restored from a quantized checkpoint is frozen");
  }
  if (new_points > history.size()) {
    return Status::InvalidArgument(
        "DeepAR: new_points exceeds history length");
  }
  IncrementalUpdateReport report;
  report.points = new_points;
  if (new_points == 0) {
    return report;
  }
  // Fine-tune only on windows whose target overlaps a new observation.
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  const size_t span = t_len + h - 1 + new_points;
  const size_t start = history.size() > span ? history.size() - span : 0;
  ts::TimeSeries suffix = history.Slice(start, history.size());
  // index_offset keeps Window::begin absolute so the teacher-forced
  // unroll's calendar features stay phase-aligned with full-series
  // training.
  ts::WindowDataset dataset(suffix, t_len, h, /*stride=*/1,
                            /*index_offset=*/start);
  if (dataset.empty()) {
    return report;  // not enough history for a single window yet
  }
  nn::TrainConfig config = options_.train;
  config.steps = options_.fine_tune_steps;
  if (options_.fine_tune_lr > 0.0) {
    config.lr = options_.fine_tune_lr;
  }
  // Distinct, deterministic minibatch stream per update.
  config.seed = DeriveSeed(options_.seed, 0x57EA + update_count_);
  ++update_count_;
  const nn::TrainSummary summary =
      RunTraining(dataset, history.step_minutes, config);
  report.gradient_steps = summary.steps_run;
  return report;
}

Result<std::vector<std::vector<double>>> DeepArForecaster::SampleTrajectories(
    const ForecastInput& input, size_t num_samples) const {
  Rng* rng = &sample_rng_;
  return SamplePaths({&input, 1}, {&rng, 1}, num_samples);
}

Rng DeepArForecaster::SamplingRng(uint64_t seed) {
  return Rng(DeriveSeed(seed, 0xD1CEu));
}

Result<std::vector<std::vector<double>>> DeepArForecaster::SamplePaths(
    std::span<const ForecastInput> inputs, std::span<Rng* const> rngs,
    size_t num_samples) const {
  RPAS_CHECK(inputs.size() == rngs.size());
  if (!fitted_) {
    return Status::FailedPrecondition("DeepAR: Fit() not called");
  }
  for (const ForecastInput& input : inputs) {
    if (input.context.size() != options_.context_length) {
      return Status::InvalidArgument("DeepAR: context length mismatch");
    }
  }
  const size_t t_len = options_.context_length;
  const size_t h = options_.horizon;
  const size_t hidden = options_.hidden_dim;
  const size_t requests = inputs.size();
  const size_t rows = requests * num_samples;

  std::vector<double> scales(requests);
  for (size_t r = 0; r < requests; ++r) {
    scales[r] = WindowScale(inputs[r].context);
  }

  // Every row of an LSTM step, and of a head, is an independent function of
  // that row's input and state: each output element accumulates over k in
  // a fixed order whatever the row count. So one roll over any set of rows
  // gives every row the bits a roll over that row alone would.
  nn::LstmCell::Runner lstm(*lstm_);
  nn::LstmCell::RawState state = lstm_->ZeroRawState(requests);
  nn::LstmCell::RawState next;
  Matrix x(requests, kInputDim);
  // Input row: scaled previous value, then the calendar features `tf`.
  const auto set_input = [&](size_t row, double y, const auto& tf) {
    x(row, 0) = y;
    std::copy(tf.begin(), tf.end(), x.data() + row * kInputDim + 1);
  };
  // Context encoding, one row per request. Its last step (t = t_len) feeds
  // the newest observation at the first forecast index: that is sample
  // step 0, whose input and state are the same for every sample of a
  // request, so it runs once per request.
  for (size_t t = 1; t <= t_len; ++t) {
    for (size_t r = 0; r < requests; ++r) {
      set_input(r, inputs[r].context[t - 1] / scales[r],
                TimeFeatures(inputs[r].start_index + t,
                             inputs[r].step_minutes));
    }
    lstm.Step(x, state, &next);
    std::swap(state, next);
  }

  // Ancestral sampling: request r owns rows [r*S, (r+1)*S) and draws from
  // rngs[r] alone, per step in sample order. Step 0 reads head row r for
  // all of its samples; later steps read each sample's own row.
  Matrix mu;
  Matrix sigma_raw;
  std::vector<std::vector<double>> trajectories(rows,
                                                std::vector<double>(h, 0.0));
  std::vector<double> prev(rows);
  const auto draw_step = [&](size_t step, size_t request_stride,
                             size_t sample_stride) {
    mu_head_->ApplyInto(state.h, &mu);
    sigma_head_->ApplyInto(state.h, &sigma_raw);
    for (size_t r = 0; r < requests; ++r) {
      for (size_t s = 0; s < num_samples; ++s) {
        const size_t head_row = r * request_stride + s * sample_stride;
        const double sigma =
            SoftplusScalar(sigma_raw(head_row, 0)) + options_.min_sigma;
        const double noise = options_.head == Head::kStudentT
                                 ? rngs[r]->StudentT(options_.student_t_dof)
                                 : rngs[r]->Normal();
        const double draw = mu(head_row, 0) + sigma * noise;
        const size_t row = r * num_samples + s;
        trajectories[row][step] = draw * scales[r];
        prev[row] = draw;
      }
    }
  };
  draw_step(0, /*request_stride=*/1, /*sample_stride=*/0);

  // Replicate each request's state across its sample rows.
  nn::LstmCell::RawState wide = lstm_->ZeroRawState(rows);
  for (size_t r = 0; r < requests; ++r) {
    for (size_t s = 0; s < num_samples; ++s) {
      const size_t row = r * num_samples + s;
      std::copy_n(state.h.data() + r * hidden, hidden,
                  wide.h.data() + row * hidden);
      std::copy_n(state.c.data() + r * hidden, hidden,
                  wide.c.data() + row * hidden);
    }
  }
  state = std::move(wide);
  x.ResizeZero(rows, kInputDim);
  for (size_t step = 1; step < h; ++step) {
    for (size_t r = 0; r < requests; ++r) {
      const auto tf = TimeFeatures(inputs[r].forecast_start() + step,
                                   inputs[r].step_minutes);
      for (size_t s = 0; s < num_samples; ++s) {
        const size_t row = r * num_samples + s;
        set_input(row, prev[row], tf);
      }
    }
    lstm.Step(x, state, &next);
    std::swap(state, next);
    draw_step(step, /*request_stride=*/num_samples, /*sample_stride=*/1);
  }
  return trajectories;
}

ts::QuantileForecast DeepArForecaster::ReduceToQuantiles(
    const std::vector<std::vector<double>>& trajectories) const {
  const size_t h = options_.horizon;
  std::vector<std::vector<double>> values(h);
  std::vector<double> column(trajectories.size());
  for (size_t step = 0; step < h; ++step) {
    for (size_t r = 0; r < trajectories.size(); ++r) {
      column[r] = trajectories[r][step];
    }
    dist::Empirical empirical(column);
    values[step].reserve(options_.levels.size());
    for (double tau : options_.levels) {
      values[step].push_back(empirical.Quantile(tau));
    }
  }
  ts::QuantileForecast forecast(options_.levels, std::move(values));
  forecast.SortQuantilesPerStep();
  return forecast;
}

Result<ts::QuantileForecast> DeepArForecaster::Predict(
    const ForecastInput& input) const {
  RPAS_ASSIGN_OR_RETURN(std::vector<std::vector<double>> trajectories,
                        SampleTrajectories(input, options_.num_samples));
  return ReduceToQuantiles(trajectories);
}

Result<ts::QuantileForecast> DeepArForecaster::PredictSeeded(
    const ForecastInput& input, uint64_t seed) const {
  Rng rng = SamplingRng(seed);
  Rng* rng_ptr = &rng;
  RPAS_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> trajectories,
      SamplePaths({&input, 1}, {&rng_ptr, 1}, options_.num_samples));
  return ReduceToQuantiles(trajectories);
}

Result<std::vector<ts::QuantileForecast>> DeepArForecaster::PredictBatch(
    const std::vector<ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  if (inputs.size() != seeds.size()) {
    return Status::InvalidArgument(
        "DeepAR: inputs and seeds must have equal length");
  }
  if (inputs.empty()) {
    return std::vector<ts::QuantileForecast>{};
  }
  const size_t num_requests = inputs.size();
  const size_t samples = options_.num_samples;
  std::vector<Rng> rngs;
  std::vector<Rng*> rng_ptrs;
  rngs.reserve(num_requests);
  for (size_t r = 0; r < num_requests; ++r) {
    rngs.push_back(SamplingRng(seeds[r]));
    rng_ptrs.push_back(&rngs.back());
  }
  RPAS_ASSIGN_OR_RETURN(std::vector<std::vector<double>> trajectories,
                        SamplePaths(inputs, rng_ptrs, samples));

  std::vector<ts::QuantileForecast> out;
  out.reserve(num_requests);
  std::vector<std::vector<double>> block(samples);
  for (size_t r = 0; r < num_requests; ++r) {
    for (size_t s = 0; s < samples; ++s) {
      block[s] = std::move(trajectories[r * samples + s]);
    }
    out.push_back(ReduceToQuantiles(block));
  }
  return out;
}

}  // namespace rpas::forecast
