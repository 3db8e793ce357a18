// Decorator transparency test for the fleet planning benchmark.
//
// A TimedForecaster must change nothing the program can observe: a wrapped
// model returns bit-identical forecasts, load results and refresh reports
// to the bare model, and a traced benchmark run reports the same quality
// metrics and counters as the untraced run (RunWorkload checks that and
// fails the run otherwise). Exit code 0 when every check passes.
//
// Build and run:  python3 perfbench/run.py --selftest

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "forecast/arima.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "nn/qcheckpoint.h"
#include "serve/registry.h"
#include "timed_forecaster.h"
#include "trace/generator.h"
#include "workloads.h"

namespace {

using rpas::forecast::ForecastInput;
using rpas::forecast::Forecaster;
using rpas::ts::QuantileForecast;

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++failures;                                                       \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__, \
                   __LINE__, #cond);                                    \
    }                                                                   \
  } while (0)

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool Identical(const QuantileForecast& a, const QuantileForecast& b) {
  if (a.Horizon() != b.Horizon() || a.Levels() != b.Levels()) {
    return false;
  }
  for (size_t h = 0; h < a.Horizon(); ++h) {
    for (size_t q = 0; q < a.Levels().size(); ++q) {
      if (!SameBits(a.ValueAtIndex(h, q), b.ValueAtIndex(h, q))) {
        return false;
      }
    }
  }
  return true;
}

template <typename T>
bool SameResult(const rpas::Result<T>& a, const rpas::Result<T>& b) {
  return a.ok() == b.ok() && a.status().code() == b.status().code() &&
         a.status().message() == b.status().message();
}

bool SameStatus(const rpas::Status& a, const rpas::Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

rpas::ts::TimeSeries Trace(size_t steps) {
  rpas::trace::SyntheticTraceGenerator generator(
      rpas::trace::AlibabaProfile(), 99);
  return generator.GenerateCpu(steps);
}

std::vector<ForecastInput> Inputs(const rpas::ts::TimeSeries& series,
                                  size_t context, size_t count) {
  std::vector<ForecastInput> inputs;
  for (size_t i = 0; i < count; ++i) {
    ForecastInput input;
    const size_t end = series.size() - 7 * i;
    input.context.assign(
        series.values.begin() + static_cast<long>(end - context),
        series.values.begin() + static_cast<long>(end));
    input.start_index = end - context;
    input.step_minutes = series.step_minutes;
    inputs.push_back(std::move(input));
  }
  return inputs;
}

/// Every forward entry point of `bare` and `wrapped` agrees bit for bit.
void ExpectSameForwards(const Forecaster& bare, const Forecaster& wrapped,
                        const std::vector<ForecastInput>& inputs) {
  const std::vector<uint64_t> seeds{11, 12, 13, 14};
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto a = bare.PredictSeeded(inputs[i], seeds[i]);
    auto b = wrapped.PredictSeeded(inputs[i], seeds[i]);
    EXPECT(SameResult(a, b));
    EXPECT(a.ok() && b.ok() && Identical(*a, *b));
  }
  auto a = bare.PredictBatch(inputs, seeds);
  auto b = wrapped.PredictBatch(inputs, seeds);
  EXPECT(SameResult(a, b));
  EXPECT(a.ok() && b.ok() && a->size() == b->size());
  for (size_t i = 0; a.ok() && b.ok() && i < a->size(); ++i) {
    EXPECT(Identical((*a)[i], (*b)[i]));
  }
  EXPECT(bare.SupportsBatchedInference() == wrapped.SupportsBatchedInference());
  EXPECT(bare.Horizon() == wrapped.Horizon());
  EXPECT(bare.ContextLength() == wrapped.ContextLength());
  EXPECT(bare.Levels() == wrapped.Levels());
  EXPECT(bare.Name() == wrapped.Name());
}

rpas::forecast::MlpForecaster::Options MlpOptions() {
  rpas::forecast::MlpForecaster::Options o;
  o.context_length = 24;
  o.horizon = 12;
  o.hidden_dim = 16;
  o.num_hidden_layers = 2;
  o.train.steps = 30;
  o.fine_tune_steps = 4;
  return o;
}

rpas::forecast::DeepArForecaster::Options DeepArOptions() {
  rpas::forecast::DeepArForecaster::Options o;
  o.context_length = 24;
  o.horizon = 12;
  o.hidden_dim = 8;
  o.num_samples = 8;
  o.train.steps = 20;
  return o;
}

perfbench::FlopModel Flops(perfbench::ModelKind kind) {
  perfbench::FlopModel f;
  f.kind = kind;
  f.context = 24;
  f.horizon = 12;
  f.hidden = 16;
  return f;
}

void TestCheckpointModels(const std::string& dir) {
  const rpas::ts::TimeSeries train = Trace(600);
  const std::vector<ForecastInput> inputs = Inputs(train, 24, 4);
  rpas::obs::TraceBuffer trace;
  perfbench::CallLog log(&trace);
  log.max_forecasts = 64;

  for (const bool mlp : {true, false}) {
    auto make = [mlp]() -> std::unique_ptr<Forecaster> {
      if (mlp) {
        return std::make_unique<rpas::forecast::MlpForecaster>(MlpOptions());
      }
      return std::make_unique<rpas::forecast::DeepArForecaster>(
          DeepArOptions());
    };
    std::unique_ptr<Forecaster> trained = make();
    EXPECT(trained->Fit(train).ok());
    const std::string text = dir + (mlp ? "/mlp.ckpt" : "/deepar.ckpt");
    const std::string q8 = dir + (mlp ? "/mlp.rpasq" : "/deepar.rpasq");
    EXPECT(trained->SaveCheckpoint(text).ok());
    EXPECT(rpas::nn::QuantizeCheckpointFile(text, q8,
                                            rpas::tensor::DType::kQ8)
               .ok());

    const perfbench::ModelKind kind =
        mlp ? perfbench::ModelKind::kMlp : perfbench::ModelKind::kDeepAr;

    // Text checkpoint: load results and forwards agree.
    std::unique_ptr<Forecaster> bare = make();
    perfbench::TimedForecaster wrapped(make(), Flops(kind), 0, &log);
    EXPECT(SameStatus(bare->LoadCheckpoint(text),
                      wrapped.LoadCheckpoint(text)));
    ExpectSameForwards(*bare, wrapped, inputs);
    // A failing load fails identically.
    std::unique_ptr<Forecaster> bare_missing = make();
    perfbench::TimedForecaster wrapped_missing(make(), Flops(kind), 0, &log);
    const std::string absent = dir + "/absent.ckpt";
    const rpas::Status miss_a = bare_missing->LoadCheckpoint(absent);
    const rpas::Status miss_b = wrapped_missing.LoadCheckpoint(absent);
    EXPECT(!miss_a.ok());
    EXPECT(SameStatus(miss_a, miss_b));

    // rpasq q8 through the registry's mapped load path.
    for (const std::string& path : {text, q8}) {
      rpas::serve::ModelRegistry::Options options;
      options.cache_budget_bytes = 1 << 24;
      rpas::obs::MetricsRegistry metrics;
      options.metrics = &metrics;
      rpas::serve::ModelRegistry bare_registry(options);
      rpas::serve::ModelRegistry wrapped_registry(options);
      const rpas::serve::ModelId id{"m", 1};
      auto make_wrapped = [&make, kind, &log]() -> std::unique_ptr<Forecaster> {
        return std::make_unique<perfbench::TimedForecaster>(
            make(), Flops(kind), 0, &log);
      };
      EXPECT(bare_registry.RegisterVersion(id, path, make).ok());
      EXPECT(wrapped_registry.RegisterVersion(id, path, make_wrapped).ok());
      auto a = bare_registry.Acquire(id);
      auto b = wrapped_registry.Acquire(id);
      EXPECT(SameResult(a, b));
      if (a.ok() && b.ok()) {
        ExpectSameForwards(**a, **b, inputs);
      }
      const auto sa = bare_registry.GetCacheStats();
      const auto sb = wrapped_registry.GetCacheStats();
      EXPECT(sa.loads == sb.loads && sa.resident_bytes == sb.resident_bytes &&
             sa.mapped_bytes == sb.mapped_bytes);
    }
  }
  EXPECT(!log.forwards.empty());
  EXPECT(log.forward_flops > 0.0);
}

void TestIncrementalRefresh(const std::string& dir) {
  const rpas::ts::TimeSeries series = Trace(700);
  rpas::obs::TraceBuffer trace;
  perfbench::CallLog log(&trace);

  rpas::forecast::ArimaForecaster::Options arima;
  arima.context_length = 48;
  arima.horizon = 12;
  rpas::forecast::MlpForecaster::Options mlp = MlpOptions();
  mlp.context_length = 48;

  for (const bool is_mlp : {false, true}) {
    auto make = [&]() -> std::unique_ptr<Forecaster> {
      if (is_mlp) {
        return std::make_unique<rpas::forecast::MlpForecaster>(mlp);
      }
      return std::make_unique<rpas::forecast::ArimaForecaster>(arima);
    };
    std::unique_ptr<Forecaster> bare = make();
    perfbench::FlopModel flops = Flops(is_mlp ? perfbench::ModelKind::kMlp
                                              : perfbench::ModelKind::kArima);
    flops.context = 48;
    perfbench::TimedForecaster wrapped(make(), flops, 0, &log);
    EXPECT(bare->SupportsIncrementalUpdate() ==
           wrapped.SupportsIncrementalUpdate());
    if (is_mlp) {
      // The benchmark restores MLPs from a checkpoint before refreshing.
      std::unique_ptr<Forecaster> trained = make();
      EXPECT(trained->Fit(series.Slice(0, 600)).ok());
      const std::string path = dir + "/refresh_mlp.ckpt";
      EXPECT(trained->SaveCheckpoint(path).ok());
      EXPECT(SameStatus(bare->LoadCheckpoint(path),
                        wrapped.LoadCheckpoint(path)));
    } else {
      EXPECT(SameStatus(bare->Fit(series.Slice(0, 600)),
                        wrapped.Fit(series.Slice(0, 600))));
    }
    for (size_t end = 606; end <= 630; end += 6) {
      const rpas::ts::TimeSeries history = series.Slice(0, end);
      auto a = bare->IncrementalUpdate(history, 6);
      auto b = wrapped.IncrementalUpdate(history, 6);
      EXPECT(SameResult(a, b));
      EXPECT(a.ok() && b.ok() && a->points == b->points &&
             a->gradient_steps == b->gradient_steps);
    }
    EXPECT(SameStatus(bare->ResyncState(series.Slice(0, 640)),
                      wrapped.ResyncState(series.Slice(0, 640))));
    const std::vector<ForecastInput> inputs =
        Inputs(series.Slice(0, 640), 48, 4);
    for (const ForecastInput& input : inputs) {
      auto a = bare->Predict(input);
      auto b = wrapped.Predict(input);
      EXPECT(SameResult(a, b));
      EXPECT(a.ok() && b.ok() && Identical(*a, *b));
    }
  }
  EXPECT(log.gradient_steps > 0);
}

/// Traced runs of every workload pass their output check, which includes
/// the traced-against-untraced equality of quality metrics and counters.
void TestTracedRuns(const std::string& dir) {
  for (const std::string& name : perfbench::WorkloadNames()) {
    perfbench::RunConfig config;
    config.workload = name;
    config.seed = 7;
    config.seconds = 0.2;
    config.trace = true;
    config.workdir = dir;
    auto report = perfbench::RunWorkload(config);
    EXPECT(report.ok());
    if (!report.ok()) {
      continue;
    }
    for (const std::string& problem : report->problems) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), problem.c_str());
    }
    EXPECT(report->correct);
    EXPECT(report->failed == 0);
    EXPECT(report->attempted > 0);
  }
}

}  // namespace

int main() {
  rpas::SetRpasThreads(1);
  const std::filesystem::path dir =
      std::filesystem::path(".bench_build") / "decorator_test";
  std::filesystem::create_directories(dir);
  TestCheckpointModels(dir.string());
  TestIncrementalRefresh(dir.string());
  TestTracedRuns(dir.string());
  std::filesystem::remove_all(dir);
  std::printf("decorator_test: %s (%d failed expectations)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
