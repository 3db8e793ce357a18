// Forecaster decorator for the traced benchmark run.
//
// TimedForecaster wraps a model the benchmark hands to the program (through
// a registry ForecasterFactory, or as a RobustAutoScalingManager forecaster
// and refresh target), forwards every virtual unchanged, and records
// obs::Spans around the calls that do a layer's work:
//
//   nn.ckpt_load              LoadCheckpoint / LoadQuantizedCheckpoint
//   forecast.forward          Predict / PredictSeeded / PredictBatch
//   stream.refresh.recursive  IncrementalUpdate of a recursive-state model
//   stream.refresh.finetune   IncrementalUpdate of a gradient-trained model
//   stream.refresh.resync     ResyncState
//   stream.refresh.retrain    Fit (the refresher's drift-guard retrain)
//
// It also logs, into a CallLog shared by every decorator of one run, which
// version each forward call served, how many rows it stacked, its GEMM
// operation count, and (up to a cap) the forecasts it returned, so the
// benchmark can replay them through single layers afterwards.

#ifndef PERFBENCH_SRC_TIMED_FORECASTER_H_
#define PERFBENCH_SRC_TIMED_FORECASTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "forecast/forecaster.h"
#include "obs/span.h"

namespace perfbench {

/// One forward call: the version it served and how many rows it stacked.
struct ForwardCall {
  size_t version = 0;  ///< the serving decorator's `version` tag
  size_t rows = 0;
};

/// Append-only record of every decorator call of one traced run. The
/// benchmark is single-threaded (RPAS_NUM_THREADS=1), so no lock is taken.
struct CallLog {
  explicit CallLog(rpas::obs::TraceBuffer* trace_buffer)
      : trace(trace_buffer) {}

  rpas::obs::TraceBuffer* trace;
  std::vector<ForwardCall> forwards;
  /// Forecasts returned by forward calls, in call order, up to
  /// `max_forecasts` (replay input for the allocation layer).
  std::vector<rpas::ts::QuantileForecast> forecasts;
  size_t max_forecasts = 0;
  /// GEMM operations (multiply + add = 2) of every forward call.
  double forward_flops = 0.0;
  /// Gradient steps reported by IncrementalUpdate.
  uint64_t gradient_steps = 0;
};

/// Kind of the wrapped model: decides the refresh span name and the GEMM
/// operation count of one forecast row.
enum class ModelKind { kMlp, kDeepAr, kArima };

/// GEMM operations (2 per multiply-add) of one forecast row of a model
/// built with these dimensions. For DeepAR one row is one request: the
/// context encode plus `samples` sampled trajectories.
struct FlopModel {
  ModelKind kind = ModelKind::kMlp;
  size_t context = 0;
  size_t horizon = 0;
  size_t hidden = 0;
  size_t hidden_layers = 1;  ///< MLP only
  size_t samples = 0;        ///< DeepAR only
  double FlopsPerRow() const;
};

class TimedForecaster final : public rpas::forecast::Forecaster {
 public:
  /// `log` must outlive the decorator; `version` tags its forward calls
  /// (the benchmark passes the index of the model version or tenant).
  TimedForecaster(std::unique_ptr<rpas::forecast::Forecaster> inner,
                  FlopModel flops, size_t version, CallLog* log);

  rpas::Status Fit(const rpas::ts::TimeSeries& train) override;
  rpas::Result<rpas::ts::QuantileForecast> Predict(
      const rpas::forecast::ForecastInput& input) const override;
  rpas::Result<std::vector<double>> PredictPoint(
      const rpas::forecast::ForecastInput& input) const override;
  rpas::Result<rpas::ts::QuantileForecast> PredictSeeded(
      const rpas::forecast::ForecastInput& input,
      uint64_t seed) const override;
  rpas::Result<std::vector<rpas::ts::QuantileForecast>> PredictBatch(
      const std::vector<rpas::forecast::ForecastInput>& inputs,
      const std::vector<uint64_t>& seeds) const override;
  bool SupportsBatchedInference() const override;

  rpas::Status SaveCheckpoint(const std::string& path) const override;
  rpas::Status LoadCheckpoint(const std::string& path) override;
  bool SupportsCheckpoint() const override;
  rpas::Status LoadQuantizedCheckpoint(
      std::shared_ptr<const rpas::nn::QuantizedCheckpoint> checkpoint)
      override;
  bool SupportsQuantizedCheckpoint() const override;

  rpas::Result<IncrementalUpdateReport> IncrementalUpdate(
      const rpas::ts::TimeSeries& history, size_t new_points) override;
  rpas::Status ResyncState(const rpas::ts::TimeSeries& history) override;
  bool SupportsIncrementalUpdate() const override;

  size_t Horizon() const override;
  size_t ContextLength() const override;
  const std::vector<double>& Levels() const override;
  std::string Name() const override;

 private:
  /// Logs one forward call of `rows` rows and the forecasts it returned.
  void LogForward(size_t rows,
                  const rpas::ts::QuantileForecast* forecasts) const;

  std::unique_ptr<rpas::forecast::Forecaster> inner_;
  FlopModel flops_;
  size_t version_;
  CallLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMED_FORECASTER_H_
