#include "timed_forecaster.h"

#include <utility>

namespace perfbench {

using rpas::Result;
using rpas::Status;
using rpas::forecast::ForecastInput;
using rpas::ts::QuantileForecast;

double FlopModel::FlopsPerRow() const {
  const double h = static_cast<double>(hidden);
  switch (kind) {
    case ModelKind::kMlp: {
      // context -> hidden (-> hidden) -> 2 * horizon (location, scale).
      double macs = static_cast<double>(context) * h +
                    h * 2.0 * static_cast<double>(horizon);
      if (hidden_layers >= 2) {
        macs += h * h;
      }
      return 2.0 * macs;
    }
    case ModelKind::kDeepAr: {
      // One LSTM step: [x, h] (1 + 4 inputs + hidden) -> 4 gates; the
      // sampling roll adds the mu and sigma heads (hidden -> 1 each).
      const double step = (5.0 + h) * 4.0 * h;
      const double encode =
          static_cast<double>(context > 0 ? context - 1 : 0) * step;
      const double decode = static_cast<double>(samples) *
                            static_cast<double>(horizon) * (step + 2.0 * h);
      return 2.0 * (encode + decode);
    }
    case ModelKind::kArima:
      return 0.0;  // no GEMM: recursive AR/MA arithmetic only
  }
  return 0.0;
}

TimedForecaster::TimedForecaster(
    std::unique_ptr<rpas::forecast::Forecaster> inner, FlopModel flops,
    size_t version, CallLog* log)
    : inner_(std::move(inner)), flops_(flops), version_(version), log_(log) {}

void TimedForecaster::LogForward(size_t rows,
                                 const QuantileForecast* forecasts) const {
  log_->forwards.push_back({version_, rows});
  log_->forward_flops += flops_.FlopsPerRow() * static_cast<double>(rows);
  if (forecasts == nullptr) {
    return;
  }
  for (size_t i = 0; i < rows && log_->forecasts.size() < log_->max_forecasts;
       ++i) {
    log_->forecasts.push_back(forecasts[i]);
  }
}

Status TimedForecaster::Fit(const rpas::ts::TimeSeries& train) {
  rpas::obs::Span span(log_->trace, "stream.refresh.retrain");
  return inner_->Fit(train);
}

Result<QuantileForecast> TimedForecaster::Predict(
    const ForecastInput& input) const {
  Result<QuantileForecast> out = [&] {
    rpas::obs::Span span(log_->trace, "forecast.forward", 1);
    return inner_->Predict(input);
  }();
  LogForward(1, out.ok() ? &*out : nullptr);
  return out;
}

Result<std::vector<double>> TimedForecaster::PredictPoint(
    const ForecastInput& input) const {
  rpas::obs::Span span(log_->trace, "forecast.forward", 1);
  Result<std::vector<double>> out = inner_->PredictPoint(input);
  log_->forwards.push_back({version_, 1});
  log_->forward_flops += flops_.FlopsPerRow();
  return out;
}

Result<QuantileForecast> TimedForecaster::PredictSeeded(
    const ForecastInput& input, uint64_t seed) const {
  Result<QuantileForecast> out = [&] {
    rpas::obs::Span span(log_->trace, "forecast.forward", 1);
    return inner_->PredictSeeded(input, seed);
  }();
  LogForward(1, out.ok() ? &*out : nullptr);
  return out;
}

Result<std::vector<QuantileForecast>> TimedForecaster::PredictBatch(
    const std::vector<ForecastInput>& inputs,
    const std::vector<uint64_t>& seeds) const {
  Result<std::vector<QuantileForecast>> out = [&] {
    rpas::obs::Span span(log_->trace, "forecast.forward",
                         static_cast<int64_t>(inputs.size()));
    return inner_->PredictBatch(inputs, seeds);
  }();
  LogForward(inputs.size(), out.ok() ? out->data() : nullptr);
  return out;
}

bool TimedForecaster::SupportsBatchedInference() const {
  return inner_->SupportsBatchedInference();
}

Status TimedForecaster::SaveCheckpoint(const std::string& path) const {
  return inner_->SaveCheckpoint(path);
}

Status TimedForecaster::LoadCheckpoint(const std::string& path) {
  rpas::obs::Span span(log_->trace, "nn.ckpt_load", 0);
  return inner_->LoadCheckpoint(path);
}

bool TimedForecaster::SupportsCheckpoint() const {
  return inner_->SupportsCheckpoint();
}

Status TimedForecaster::LoadQuantizedCheckpoint(
    std::shared_ptr<const rpas::nn::QuantizedCheckpoint> checkpoint) {
  rpas::obs::Span span(log_->trace, "nn.ckpt_load", 1);
  return inner_->LoadQuantizedCheckpoint(std::move(checkpoint));
}

bool TimedForecaster::SupportsQuantizedCheckpoint() const {
  return inner_->SupportsQuantizedCheckpoint();
}

Result<TimedForecaster::IncrementalUpdateReport>
TimedForecaster::IncrementalUpdate(const rpas::ts::TimeSeries& history,
                                   size_t new_points) {
  Result<IncrementalUpdateReport> out = [&] {
    rpas::obs::Span span(log_->trace, flops_.kind == ModelKind::kArima
                                          ? "stream.refresh.recursive"
                                          : "stream.refresh.finetune");
    return inner_->IncrementalUpdate(history, new_points);
  }();
  if (out.ok()) {
    log_->gradient_steps += static_cast<uint64_t>(out->gradient_steps);
  }
  return out;
}

Status TimedForecaster::ResyncState(const rpas::ts::TimeSeries& history) {
  rpas::obs::Span span(log_->trace, "stream.refresh.resync");
  return inner_->ResyncState(history);
}

bool TimedForecaster::SupportsIncrementalUpdate() const {
  return inner_->SupportsIncrementalUpdate();
}

size_t TimedForecaster::Horizon() const { return inner_->Horizon(); }

size_t TimedForecaster::ContextLength() const {
  return inner_->ContextLength();
}

const std::vector<double>& TimedForecaster::Levels() const {
  return inner_->Levels();
}

std::string TimedForecaster::Name() const { return inner_->Name(); }

}  // namespace perfbench
