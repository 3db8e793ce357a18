#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/manager.h"
#include "core/online_loop.h"
#include "core/strategies.h"
#include "core/uncertainty.h"
#include "forecast/arima.h"
#include "forecast/deepar.h"
#include "forecast/mlp.h"
#include "nn/qcheckpoint.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "select/classifier.h"
#include "select/prescaler.h"
#include "select/selector.h"
#include "serve/fleet.h"
#include "serve/registry.h"
#include "simdb/cluster.h"
#include "reference.h"
#include "timed_forecaster.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

using rpas::Result;
using rpas::Status;
using rpas::StrFormat;
using rpas::forecast::Forecaster;
using rpas::serve::ModelId;
using rpas::serve::ModelRegistry;

constexpr size_t kStepsPerDay = 144;
constexpr size_t kMinReps = 3;
/// Set-ups an untraced run times for setup_s (the median is reported);
/// a traced run sets up once.
constexpr int kSetupRepeats = 5;

// Seed streams derived from the workload seed, and the fixed seed of the
// fleets' training trace.
constexpr uint64_t kInputStream = 2;
constexpr uint64_t kTenantStream = 3;
constexpr uint64_t kTrainSeed = 0x5eed;

// Fleet shape (both fleet workloads).
constexpr size_t kFleetTenants = 64;
constexpr size_t kFleetContext = 24;
constexpr size_t kFleetHorizon = 12;
constexpr size_t kFleetReplan = 6;
constexpr size_t kFleetSteps = kStepsPerDay;
constexpr size_t kFleetHistory = 48;
constexpr size_t kColdVersions = 12;
/// Distinct fleet inputs (FleetOptions seeds) a run cycles through; the
/// quality metrics are their mean. fleet-cold runs cost ~5x more, so it
/// takes fewer inputs and repeats each more often.
constexpr size_t kColdInputs = 8;
constexpr size_t kWarmInputs = 32;

// Online-loop shape.
constexpr size_t kLoopTenants = 16;
constexpr size_t kLoopContext = 48;
constexpr size_t kLoopHorizon = 12;
constexpr size_t kLoopReplan = 6;
constexpr size_t kLoopSteps = 2 * kStepsPerDay;
constexpr size_t kLoopHistory = 4 * kStepsPerDay;
/// Smaller than two rounds of points, so bursts after a stall drop.
constexpr size_t kLoopRing = 8;
/// Distinct sets of tenant traces (each with its own fitted models) a run
/// cycles through; the quality metrics are their mean.
constexpr size_t kLoopInputs = 8;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size =
      in.is_open() ? static_cast<std::streamoff>(in.tellg()) : 0;
  return size > 0 ? static_cast<size_t>(size) : 0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Outcome of one run of the entry point (one RunFleet call, or the 16
/// RunOnlineLoop calls of loop-stream).
struct Outcome {
  double entry_ms = 0.0;  ///< wall time inside the entry point(s)
  uint64_t rounds = 0;    ///< tenant planning rounds
  uint64_t error_rounds = 0;
  uint64_t fresh = 0, stale = 0, fallback = 0, retried = 0;
  uint64_t admitted = 0, throttled = 0, shed = 0;
  double under = 0.0, over = 0.0, slo = 0.0;  ///< tenant means
  uint64_t stream_points = 0, stream_dropped = 0;
  uint64_t resyncs = 0, full_retrains = 0, gradient_steps = 0;
  double staleness_mean = 0.0;
  int64_t hits = 0, misses = 0, loads = 0, evictions = 0;
  uint64_t charged_bytes = 0, resident_bytes = 0;
  uint64_t batches = 0, batch_rows = 0;
  uint64_t tier_switches = 0, prescale_activations = 0;
  uint64_t floor_raised_steps = 0, faulted_steps = 0;
  /// Per-round planning wall time (loop only).
  std::vector<double> plan_ms;
  /// Per-step decisions, filled when requested.
  std::vector<rpas::obs::ScalingDecision> decisions;
  std::vector<std::string> problems;

  /// Every deterministic field, for the repeat and transparency checks.
  std::vector<uint64_t> Fingerprint() const {
    return {rounds, error_rounds, fresh, stale, fallback, retried, admitted,
            throttled, shed, Bits(under), Bits(over), Bits(slo),
            stream_points, stream_dropped, resyncs, full_retrains,
            gradient_steps, Bits(staleness_mean),
            static_cast<uint64_t>(hits), static_cast<uint64_t>(misses),
            static_cast<uint64_t>(loads), static_cast<uint64_t>(evictions),
            charged_bytes, resident_bytes, batches, batch_rows,
            tier_switches, prescale_activations, floor_raised_steps,
            faulted_steps};
  }
};

/// Replay inputs a workload hands to the per-layer replays.
struct AcquireReplay {
  /// A fresh registry as the workload's runs find it (pre-warmed or cold).
  std::function<Result<std::unique_ptr<ModelRegistry>>()> make_registry;
  std::vector<ModelId> warmup;    ///< RunFleet's own warm-up acquires
  std::vector<ModelId> versions;  ///< ForwardCall::version -> id
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything before the measured phase.
  virtual Status Setup() = 0;
  /// Called once before the traced phase (decorated registries, pre-warm).
  virtual Status PrepareTraced(CallLog* /*log*/) { return Status::OK(); }
  /// One run of the entry point on input `input`; `log` non-null runs it
  /// with every model decorated.
  virtual Result<Outcome> Run(size_t input, CallLog* log, bool decisions) = 0;
  virtual size_t NumInputs() const = 0;
  /// Null for workloads without a model registry.
  virtual std::optional<AcquireReplay> Acquires() const { return std::nullopt; }
  /// Allocator the workload plans with, for the allocation replay.
  virtual std::unique_ptr<rpas::core::QuantileAllocator> Allocator(
      const std::vector<rpas::ts::QuantileForecast>& captured) const = 0;
};

// ---------------------------------------------------------------------------
// Fleet workloads.

rpas::forecast::MlpForecaster::Options FleetMlpOptions() {
  rpas::forecast::MlpForecaster::Options o;
  o.context_length = kFleetContext;
  o.horizon = kFleetHorizon;
  o.hidden_dim = 64;
  o.num_hidden_layers = 2;
  o.batch_size = 16;
  o.train.steps = 300;
  o.train.lr = 1e-3;
  o.levels = rpas::forecast::ScalingQuantileLevels();
  return o;
}

rpas::forecast::DeepArForecaster::Options FleetDeepArOptions() {
  rpas::forecast::DeepArForecaster::Options o;
  o.context_length = kFleetContext;
  o.horizon = kFleetHorizon;
  o.hidden_dim = 20;
  o.batch_size = 8;
  o.num_samples = 12;
  o.train.steps = 200;
  o.train.lr = 1e-3;
  o.levels = rpas::forecast::ScalingQuantileLevels();
  return o;
}

FlopModel FleetFlops(bool mlp) {
  FlopModel f;
  if (mlp) {
    const auto o = FleetMlpOptions();
    f.kind = ModelKind::kMlp;
    f.context = o.context_length;
    f.horizon = o.horizon;
    f.hidden = o.hidden_dim;
    f.hidden_layers = o.num_hidden_layers;
  } else {
    const auto o = FleetDeepArOptions();
    f.kind = ModelKind::kDeepAr;
    f.context = o.context_length;
    f.horizon = o.horizon;
    f.hidden = o.hidden_dim;
    f.samples = o.num_samples;
  }
  return f;
}

std::unique_ptr<Forecaster> MakeFleetModel(bool mlp) {
  if (mlp) {
    return std::make_unique<rpas::forecast::MlpForecaster>(FleetMlpOptions());
  }
  return std::make_unique<rpas::forecast::DeepArForecaster>(
      FleetDeepArOptions());
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(bool warm, uint64_t seed, std::string workdir)
      : warm_(warm), seed_(seed), workdir_(std::move(workdir)) {}

  Status Setup() override {
    // Models train on one fixed reference trace: the seed varies the
    // tenants the fleet serves, not the quality of a training draw.
    rpas::trace::SyntheticTraceGenerator generator(
        rpas::trace::AlibabaProfile(), kTrainSeed);
    const rpas::ts::TimeSeries train = generator.GenerateCpu(6 * kStepsPerDay);
    rpas::forecast::MlpForecaster mlp(FleetMlpOptions());
    RPAS_RETURN_IF_ERROR(mlp.Fit(train));
    rpas::forecast::DeepArForecaster deepar(FleetDeepArOptions());
    RPAS_RETURN_IF_ERROR(deepar.Fit(train));

    const std::string tag = warm_ ? "warm" : "cold";
    const size_t versions = warm_ ? 2 : kColdVersions;
    ids_.clear();
    paths_.clear();
    total_bytes_ = 0;
    for (size_t v = 0; v < versions; ++v) {
      // Versions alternate the two architectures; on fleet-cold the second
      // half is converted to rpasq block-q8.
      const bool mlp_version = v % 2 == 0;
      const bool quantized = !warm_ && v >= versions / 2;
      const std::string stem =
          StrFormat("%s/%s_%s_v%zu", workdir_.c_str(), tag.c_str(),
                    mlp_version ? "mlp" : "deepar", v);
      const std::string text_path = stem + ".ckpt";
      if (mlp_version) {
        RPAS_RETURN_IF_ERROR(mlp.SaveCheckpoint(text_path));
      } else {
        RPAS_RETURN_IF_ERROR(deepar.SaveCheckpoint(text_path));
      }
      std::string path = text_path;
      if (quantized) {
        path = stem + ".rpasq";
        RPAS_RETURN_IF_ERROR(rpas::nn::QuantizeCheckpointFile(
            text_path, path, rpas::tensor::DType::kQ8));
      }
      ids_.push_back({mlp_version ? "mlp" : "deepar", v + 1});
      paths_.push_back(path);
      total_bytes_ += FileBytes(path);
    }
    budget_ = warm_ ? total_bytes_ : total_bytes_ / 2;

    options_ = rpas::serve::FleetOptions();
    options_.num_tenants = kFleetTenants;
    options_.num_steps = kFleetSteps;
    options_.history_steps = kFleetHistory;
    options_.replan_every = kFleetReplan;
    options_.profile = rpas::trace::AlibabaProfile();
    options_.tau = 0.7;
    options_.batched = true;
    options_.num_shards = 1;
    if (warm_) {
      options_.selection.enabled = true;
      options_.selection.ladder = ids_;
      options_.selection.prescale = true;
      // Two extra nodes within a horizon count as a spike, so pre-scaling
      // acts on the fleet's small clusters.
      options_.selection.prescaler.spike_ratio = 1.25;
      options_.selection.prescaler.min_spike_nodes = 1;
      options_.admission.round_budget = 48;  // below the tenant count
      options_.faults.forecaster_timeout_rate = 0.04;
      options_.faults.forecaster_timeout_attempts = 3;  // outlasts retries
      options_.faults.stale_forecast_rate = 0.03;
      options_.faults.actuation_delay_rate = 0.04;
      options_.faults.crash_rate = 0.02;
      // Built and warmed here, so the measured phase never misses.
      RPAS_ASSIGN_OR_RETURN(registry_, MakeWarmRegistry(nullptr));
    }
    return Status::OK();
  }

  Status PrepareTraced(CallLog* log) override {
    if (warm_) {
      RPAS_ASSIGN_OR_RETURN(traced_registry_, MakeWarmRegistry(log));
    }
    return Status::OK();
  }

  Result<Outcome> Run(size_t input, CallLog* log, bool decisions) override {
    std::unique_ptr<ModelRegistry> cold;
    ModelRegistry* registry = nullptr;
    if (warm_) {
      registry = log != nullptr ? traced_registry_.get() : registry_.get();
    } else {
      RPAS_ASSIGN_OR_RETURN(cold, MakeRegistry(log));
      registry = cold.get();
    }
    const ModelRegistry::CacheStats before = registry->GetCacheStats();
    rpas::obs::MetricsRegistry metrics;
    rpas::serve::FleetOptions options = options_;
    options.seed = rpas::DeriveSeed(seed_, kInputStream + input);
    options.faults.seed = rpas::DeriveSeed(options.seed, kTenantStream);
    options.metrics = &metrics;
    options.collect_decisions = decisions;

    Outcome out;
    const double start = NowMs();
    Result<rpas::serve::FleetResult> result = [&] {
      std::optional<rpas::obs::Span> span;
      if (log != nullptr) {
        span.emplace(log->trace, "fleet.run");
      }
      return rpas::serve::RunFleet(registry, ids_, options);
    }();
    out.entry_ms = NowMs() - start;
    if (!result.ok()) {
      return result.status();
    }
    const rpas::serve::FleetResult& fleet = *result;
    for (const rpas::serve::TenantSummary& t : fleet.tenants) {
      out.rounds += t.rounds;
      out.error_rounds += t.error_rounds;
      out.fresh += t.fresh_rounds;
      out.stale += t.stale_rounds;
      out.fallback += t.fallback_rounds;
      out.faulted_steps += t.faulted_steps;
      if (t.rounds != t.fresh_rounds + t.stale_rounds + t.fallback_rounds) {
        out.problems.push_back(StrFormat(
            "tenant %llu: rounds %zu != fresh %zu + stale %zu + fallback %zu",
            static_cast<unsigned long long>(t.tenant_id), t.rounds,
            t.fresh_rounds, t.stale_rounds, t.fallback_rounds));
      }
      if (t.stream_points + t.stream_dropped != kFleetSteps) {
        out.problems.push_back(StrFormat(
            "tenant %llu: stream points %llu + dropped %llu != pushed %zu",
            static_cast<unsigned long long>(t.tenant_id),
            static_cast<unsigned long long>(t.stream_points),
            static_cast<unsigned long long>(t.stream_dropped), kFleetSteps));
      }
    }
    out.admitted = fleet.requests_admitted;
    out.throttled = fleet.requests_throttled;
    out.shed = fleet.requests_shed;
    out.under = fleet.mean_under_provision_rate;
    out.over = fleet.mean_over_provision_rate;
    out.slo = fleet.mean_slo_violation_rate;
    out.stream_points = fleet.stream_points;
    out.stream_dropped = fleet.stream_dropped;
    out.staleness_mean = fleet.mean_staleness_steps;
    out.tier_switches = fleet.tier_switches;
    out.prescale_activations = fleet.prescale_activations;
    out.floor_raised_steps = fleet.prescale_floor_raised_steps;
    const ModelRegistry::CacheStats& after = fleet.cache;
    out.hits = after.hits - before.hits;
    out.misses = after.misses - before.misses;
    out.loads = after.loads - before.loads;
    out.evictions = after.evictions - before.evictions;
    out.charged_bytes = after.charged_bytes;
    out.resident_bytes = after.resident_bytes;
    if (out.loads != out.misses) {
      out.problems.push_back(StrFormat("registry loads %lld != misses %lld",
                                       static_cast<long long>(out.loads),
                                       static_cast<long long>(out.misses)));
    }
    if (warm_ && out.misses != 0) {
      out.problems.push_back(StrFormat(
          "fleet-warm missed %lld times in the measured phase",
          static_cast<long long>(out.misses)));
    }
    out.batches = static_cast<uint64_t>(
        metrics.GetStripedCounter("serve.engine.batches")->value());
    out.batch_rows = static_cast<uint64_t>(
        metrics.GetStripedCounter("serve.engine.requests")->value());
    if (out.fresh + out.error_rounds != out.batch_rows) {
      out.problems.push_back(StrFormat(
          "engine served %llu rows for %llu fresh + %llu error rounds",
          static_cast<unsigned long long>(out.batch_rows),
          static_cast<unsigned long long>(out.fresh),
          static_cast<unsigned long long>(out.error_rounds)));
    }
    out.decisions = std::move(result->decisions);
    return out;
  }

  size_t NumInputs() const override {
    return warm_ ? kWarmInputs : kColdInputs;
  }

  std::optional<AcquireReplay> Acquires() const override {
    AcquireReplay replay;
    replay.make_registry = [this] {
      return warm_ ? MakeWarmRegistry(nullptr) : MakeRegistry(nullptr);
    };
    // RunFleet acquires its model list, then (selecting) the ladder.
    replay.warmup = ids_;
    if (warm_) {
      replay.warmup.insert(replay.warmup.end(), ids_.begin(), ids_.end());
    }
    replay.versions = ids_;
    return replay;
  }

  std::unique_ptr<rpas::core::QuantileAllocator> Allocator(
      const std::vector<rpas::ts::QuantileForecast>& /*captured*/)
      const override {
    return std::make_unique<rpas::core::RobustQuantileAllocator>(
        options_.tau);
  }

 private:
  /// A registry with every version registered; `log` non-null decorates
  /// the models it builds.
  Result<std::unique_ptr<ModelRegistry>> MakeRegistry(CallLog* log) const {
    ModelRegistry::Options registry_options;
    registry_options.cache_budget_bytes = budget_;
    auto registry = std::make_unique<ModelRegistry>(registry_options);
    for (size_t v = 0; v < ids_.size(); ++v) {
      const bool mlp = v % 2 == 0;
      rpas::serve::ForecasterFactory factory;
      if (log == nullptr) {
        factory = [mlp] { return MakeFleetModel(mlp); };
      } else {
        factory = [mlp, v, log]() -> std::unique_ptr<Forecaster> {
          return std::make_unique<TimedForecaster>(MakeFleetModel(mlp),
                                                   FleetFlops(mlp), v, log);
        };
      }
      RPAS_RETURN_IF_ERROR(
          registry->RegisterVersion(ids_[v], paths_[v], std::move(factory)));
    }
    return registry;
  }

  /// Acquires every version once, so later runs never miss.
  Result<std::unique_ptr<ModelRegistry>> MakeWarmRegistry(CallLog* log) const {
    RPAS_ASSIGN_OR_RETURN(std::unique_ptr<ModelRegistry> registry,
                          MakeRegistry(log));
    for (const ModelId& id : ids_) {
      RPAS_RETURN_IF_ERROR(registry->Acquire(id).status());
    }
    return registry;
  }

  const bool warm_;
  const uint64_t seed_;
  const std::string workdir_;
  std::vector<ModelId> ids_;
  std::vector<std::string> paths_;
  size_t total_bytes_ = 0;
  size_t budget_ = 0;
  rpas::serve::FleetOptions options_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<ModelRegistry> traced_registry_;
};

// ---------------------------------------------------------------------------
// Online-loop workload.

rpas::forecast::MlpForecaster::Options LoopMlpOptions() {
  rpas::forecast::MlpForecaster::Options o;
  o.context_length = kLoopContext;
  o.horizon = kLoopHorizon;
  o.hidden_dim = 32;
  o.num_hidden_layers = 1;
  o.batch_size = 16;
  o.train.steps = 40;
  o.train.lr = 1e-3;
  o.fine_tune_steps = 8;
  o.levels = rpas::forecast::ScalingQuantileLevels();
  return o;
}

rpas::forecast::ArimaForecaster::Options LoopArimaOptions() {
  rpas::forecast::ArimaForecaster::Options o;
  o.p = 3;
  o.d = 1;
  o.q = 2;
  o.context_length = kLoopContext;
  o.horizon = kLoopHorizon;
  o.levels = rpas::forecast::ScalingQuantileLevels();
  return o;
}

FlopModel LoopFlops(bool mlp) {
  FlopModel f;
  f.kind = mlp ? ModelKind::kMlp : ModelKind::kArima;
  if (mlp) {
    const auto o = LoopMlpOptions();
    f.context = o.context_length;
    f.horizon = o.horizon;
    f.hidden = o.hidden_dim;
    f.hidden_layers = o.num_hidden_layers;
  }
  return f;
}

class LoopWorkload final : public Workload {
 public:
  LoopWorkload(uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  Status Setup() override {
    inputs_.assign(kLoopInputs, std::vector<Tenant>(kLoopTenants));
    for (size_t i = 0; i < kLoopInputs; ++i) {
      for (size_t t = 0; t < kLoopTenants; ++t) {
        RPAS_RETURN_IF_ERROR(SetupTenant(i, t, &inputs_[i][t]));
      }
    }
    return Status::OK();
  }

  Result<Outcome> Run(size_t input, CallLog* log, bool decisions) override {
    Outcome out;
    rpas::obs::MetricsRegistry metrics;
    rpas::obs::TraceBuffer quiet(/*capacity=*/1, /*enabled=*/false);
    for (size_t t = 0; t < kLoopTenants; ++t) {
      const Tenant& tenant = inputs_[input][t];
      // Every run starts from the same fitted state: MLPs reload the
      // set-up checkpoint, ARIMA refits (a least-squares solve).
      std::unique_ptr<Forecaster> model;
      if (tenant.mlp) {
        model = std::make_unique<rpas::forecast::MlpForecaster>(
            LoopMlpOptions());
        RPAS_RETURN_IF_ERROR(model->LoadCheckpoint(tenant.checkpoint));
      } else {
        model = std::make_unique<rpas::forecast::ArimaForecaster>(
            LoopArimaOptions());
        RPAS_RETURN_IF_ERROR(model->Fit(History(tenant)));
      }
      if (log != nullptr) {
        model = std::make_unique<TimedForecaster>(
            std::move(model), LoopFlops(tenant.mlp), t, log);
      }
      rpas::core::RobustAutoScalingManager manager(
          model.get(),
          std::make_unique<rpas::core::AdaptiveQuantileAllocator>(
              kTauOptimistic, kTauConservative, tenant.rho),
          tenant.config);
      manager.SetObservability(&metrics, &quiet);

      rpas::core::OnlineLoopOptions options;
      options.replan_every = kLoopReplan;
      options.cluster.node_capacity = tenant.config.theta;
      options.cluster.initial_nodes = tenant.initial_nodes;
      const uint64_t input_seed = rpas::DeriveSeed(seed_, kInputStream + input);
      options.cluster.seed = rpas::DeriveSeed(input_seed, 2 * kLoopTenants + t);
      options.cluster.metrics = &metrics;
      options.faults.forecaster_timeout_rate = 0.04;
      options.faults.forecaster_timeout_attempts = 3;  // outlasts retries
      options.faults.forecaster_nan_rate = 0.06;       // one retry absorbs
      options.faults.stale_forecast_rate = 0.03;
      options.faults.ingest_stall_rate = 0.05;
      options.faults.ingest_stall_steps = 4;
      options.faults.seed = rpas::DeriveSeed(input_seed, kLoopTenants + t);
      options.metrics = &metrics;
      options.trace = &quiet;
      options.streaming.refresh_mode = rpas::core::RefreshMode::kIncremental;
      options.streaming.refresh_target = model.get();
      options.streaming.ring_capacity = kLoopRing;

      const double start = NowMs();
      Result<rpas::core::OnlineLoopResult> result = [&] {
        std::optional<rpas::obs::Span> span;
        if (log != nullptr) {
          span.emplace(log->trace, "loop.run", static_cast<int64_t>(t));
        }
        return rpas::core::RunOnlineLoop(manager, tenant.series, kLoopHistory,
                                         kLoopSteps, options);
      }();
      out.entry_ms += NowMs() - start;
      if (!result.ok()) {
        return result.status();
      }
      Account(t, *result, &out);
      if (decisions) {
        const std::vector<rpas::obs::ScalingDecision> d =
            rpas::core::CollectDecisions(*result, StrFormat("tenant%zu", t));
        out.decisions.insert(out.decisions.end(), d.begin(), d.end());
      }
    }
    const double n = static_cast<double>(kLoopTenants);
    out.under /= n;
    out.over /= n;
    out.slo /= n;
    out.staleness_mean /= n;
    return out;
  }

  size_t NumInputs() const override { return kLoopInputs; }

  std::unique_ptr<rpas::core::QuantileAllocator> Allocator(
      const std::vector<rpas::ts::QuantileForecast>& captured) const override {
    std::vector<double> u;
    for (const rpas::ts::QuantileForecast& f : captured) {
      for (double v : rpas::core::QuantileUncertaintyPerStep(f)) {
        u.push_back(v);
      }
    }
    return std::make_unique<rpas::core::AdaptiveQuantileAllocator>(
        kTauOptimistic, kTauConservative, Median(u));
  }

 private:
  static constexpr double kTauOptimistic = 0.8;
  static constexpr double kTauConservative = 0.95;

  struct Tenant {
    bool mlp = false;
    rpas::ts::TimeSeries series;
    rpas::core::ScalingConfig config;
    int initial_nodes = 1;
    double rho = 0.0;
    std::string checkpoint;
  };

  Status SetupTenant(size_t input, size_t t, Tenant* tenant_out) {
    Tenant& tenant = *tenant_out;
    tenant.mlp = t % 2 == 1;
    const rpas::trace::TraceProfile profile =
        t % 2 == 0 ? rpas::trace::AlibabaProfile()
                   : rpas::trace::GoogleProfile();
    rpas::trace::SyntheticTraceGenerator generator(
        profile, rpas::DeriveSeed(
                     rpas::DeriveSeed(seed_, kInputStream + input), t));
    tenant.series = generator.GenerateCpu(kLoopHistory + kLoopSteps);
    const double mean_history =
        std::accumulate(tenant.series.values.begin(),
                        tenant.series.values.begin() +
                            static_cast<long>(kLoopHistory),
                        0.0) /
        static_cast<double>(kLoopHistory);
    tenant.config.theta = std::max(mean_history / 4.0, 1e-9);
    tenant.initial_nodes = rpas::core::RequiredNodes(
        tenant.series.values[kLoopHistory - 1], tenant.config);
    tenant.checkpoint =
        StrFormat("%s/loop_mlp_i%zu_t%zu.ckpt", workdir_.c_str(), input, t);
    std::unique_ptr<Forecaster> model;
    if (tenant.mlp) {
      model = std::make_unique<rpas::forecast::MlpForecaster>(
          LoopMlpOptions());
      RPAS_RETURN_IF_ERROR(model->Fit(History(tenant)));
      RPAS_RETURN_IF_ERROR(model->SaveCheckpoint(tenant.checkpoint));
    } else {
      model = std::make_unique<rpas::forecast::ArimaForecaster>(
          LoopArimaOptions());
      RPAS_RETURN_IF_ERROR(model->Fit(History(tenant)));
    }
    // Algorithm 1's uncertainty threshold rho: the median per-step U
    // (Eq. 8) of the forecast at the end of the tenant's history, so the
    // optimistic and the conservative level both get used.
    rpas::forecast::ForecastInput probe;
    probe.context.assign(
        tenant.series.values.begin() +
            static_cast<long>(kLoopHistory - kLoopContext),
        tenant.series.values.begin() + static_cast<long>(kLoopHistory));
    probe.start_index = kLoopHistory - kLoopContext;
    probe.step_minutes = tenant.series.step_minutes;
    RPAS_ASSIGN_OR_RETURN(const rpas::ts::QuantileForecast forecast,
                          model->Predict(probe));
    tenant.rho =
        Median(rpas::core::QuantileUncertaintyPerStep(forecast));
    return Status::OK();
  }

  static rpas::ts::TimeSeries History(const Tenant& tenant) {
    return tenant.series.Slice(0, kLoopHistory);
  }

  static void Account(size_t t, const rpas::core::OnlineLoopResult& r,
                      Outcome* out) {
    using rpas::simdb::FaultAction;
    using rpas::simdb::FaultType;
    size_t fault_fallbacks = 0, planner_errors = 0, fallback_events = 0,
           stale_events = 0;
    for (const rpas::simdb::FaultEvent& e : r.fault_events) {
      const bool fallback = e.action == FaultAction::kFallbackLastGood ||
                            e.action == FaultAction::kFallbackReactive;
      fallback_events += fallback ? 1 : 0;
      if (fallback && (e.type == FaultType::kForecasterTimeout ||
                       e.type == FaultType::kForecasterNan)) {
        ++fault_fallbacks;
      }
      planner_errors += e.type == FaultType::kPlannerError ? 1 : 0;
      stale_events += e.type == FaultType::kStaleForecast ? 1 : 0;
    }
    const size_t expected_rounds = (kLoopSteps + kLoopReplan - 1) / kLoopReplan;
    auto problem = [&](const std::string& what) {
      out->problems.push_back(StrFormat("tenant %zu: %s", t, what.c_str()));
    };
    if (r.plans_made != expected_rounds) {
      problem(StrFormat("plans_made %zu != %zu rounds", r.plans_made,
                        expected_rounds));
    }
    if (r.forecaster_faults != r.retried_plans + fault_fallbacks) {
      problem(StrFormat("forecaster_faults %zu != retried %zu + fallbacks %zu",
                        r.forecaster_faults, r.retried_plans,
                        fault_fallbacks));
    }
    if (r.fallback_plans != fallback_events) {
      problem(StrFormat("fallback_plans %zu != %zu fallback events",
                        r.fallback_plans, fallback_events));
    }
    if (r.stale_plans != stale_events) {
      problem(StrFormat("stale_plans %zu != %zu stale events", r.stale_plans,
                        stale_events));
    }
    if (r.stale_plans + r.fallback_plans > r.plans_made) {
      problem("more degraded rounds than rounds");
    }
    if (r.points_ingested + r.points_pending != kLoopSteps) {
      problem(StrFormat("ingested %llu + pending %llu != %zu realized points",
                        static_cast<unsigned long long>(r.points_ingested),
                        static_cast<unsigned long long>(r.points_pending),
                        kLoopSteps));
    }
    if (r.refresh.points_consumed + r.points_dropped > r.points_ingested) {
      problem(StrFormat(
          "consumed %llu + dropped %llu > ingested %llu",
          static_cast<unsigned long long>(r.refresh.points_consumed),
          static_cast<unsigned long long>(r.points_dropped),
          static_cast<unsigned long long>(r.points_ingested)));
    }
    if (r.round_plan_millis.size() != r.plans_made) {
      problem("round_plan_millis length != plans_made");
    }
    out->rounds += r.plans_made;
    out->error_rounds += planner_errors;
    out->stale += r.stale_plans;
    out->fallback += r.fallback_plans;
    out->fresh += r.plans_made - std::min(r.plans_made,
                                          r.stale_plans + r.fallback_plans);
    out->retried += r.retried_plans;
    out->under += r.under_provision_rate;
    out->over += r.over_provision_rate;
    out->slo += r.slo_violation_rate;
    out->stream_points += r.refresh.points_consumed;
    out->stream_dropped += r.points_dropped;
    out->resyncs += r.refresh.resyncs;
    out->full_retrains += r.refresh.full_retrains;
    out->gradient_steps += r.refresh.gradient_steps;
    out->staleness_mean += r.mean_staleness_points;
    out->faulted_steps += r.faulted_steps;
    out->plan_ms.insert(out->plan_ms.end(), r.round_plan_millis.begin(),
                        r.round_plan_millis.end());
  }

  const uint64_t seed_;
  const std::string workdir_;
  std::vector<std::vector<Tenant>> inputs_;  ///< [input][tenant]
};

// ---------------------------------------------------------------------------
// Measurement.

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "fleet-cold") {
    return std::make_unique<FleetWorkload>(false, config.seed, config.workdir);
  }
  if (config.workload == "fleet-warm") {
    return std::make_unique<FleetWorkload>(true, config.seed, config.workdir);
  }
  if (config.workload == "loop-stream") {
    return std::make_unique<LoopWorkload>(config.seed, config.workdir);
  }
  return nullptr;
}

/// One measured phase: repeated runs of the entry point for `seconds`.
struct Phase {
  std::vector<Outcome> outcomes;   ///< every run, in order
  /// Input, entry-point time (wall clock, and scaled to the reference
  /// host) and reference-kernel time of each run.
  std::vector<size_t> input;
  std::vector<double> wall_ms_of_run;
  std::vector<double> scaled_ms_of_run;
  std::vector<double> reference_ms;
  double wall_ms = 0.0;
  double start_ns = 0.0;  ///< trace clock at phase start (traced only)
  /// Forward calls the first run logged (traced only): the acquire
  /// replay's sequence.
  size_t first_run_forwards = 0;
};

/// Runs the entry point for `seconds`, and at least `min_reps` times.
Phase Measure(Workload* workload, double seconds, size_t min_reps,
              CallLog* log,
              std::map<size_t, std::vector<uint64_t>>* fingerprints,
              RunReport* report, Status* error) {
  Phase phase;
  if (log != nullptr) {
    phase.start_ns = static_cast<double>(log->trace->NowNs());
  }
  // The reference kernel runs between repetitions; each repetition is
  // scaled by the mean of the runs just before and just after it.
  auto reference_ms = [log] {
    std::optional<rpas::obs::Span> span;
    if (log != nullptr) {
      span.emplace(log->trace, "bench.reference");
    }
    return ReferenceMs();
  };
  const double start = NowMs();
  double reference_before = reference_ms();
  for (size_t rep = 0; rep < min_reps || NowMs() - start < seconds * 1e3;
       ++rep) {
    const size_t input = rep % workload->NumInputs();
    // The first traced run also records its decisions for the replays.
    const bool decisions = log != nullptr && rep == 0;
    Result<Outcome> outcome = workload->Run(input, log, decisions);
    if (!outcome.ok()) {
      *error = outcome.status();
      break;
    }
    report->attempted += outcome->rounds;
    bool failed = !outcome->problems.empty();
    for (const std::string& p : outcome->problems) {
      report->problems.push_back(p);
    }
    const std::vector<uint64_t> fp = outcome->Fingerprint();
    auto [it, inserted] = fingerprints->emplace(input, fp);
    if (!inserted && it->second != fp) {
      failed = true;
      report->problems.push_back(StrFormat(
          "input %zu: counters or quality metrics differ from an earlier run "
          "of the same input%s",
          input, log != nullptr ? " (traced against untraced)" : ""));
    }
    report->failed += failed ? outcome->rounds : outcome->error_rounds;
    if (log != nullptr && rep == 0) {
      phase.first_run_forwards = log->forwards.size();
    }
    const double reference_after = reference_ms();
    const double reference = 0.5 * (reference_before + reference_after);
    reference_before = reference_after;
    phase.input.push_back(input);
    phase.wall_ms_of_run.push_back(outcome->entry_ms);
    phase.scaled_ms_of_run.push_back(
        Ratio(outcome->entry_ms * kReferenceHostMs, reference));
    phase.reference_ms.push_back(reference);
    phase.outcomes.push_back(std::move(*outcome));
  }
  phase.wall_ms = NowMs() - start;
  return phase;
}

/// Tenant rounds per second over the inputs in `inputs` (all when empty):
/// each input's rounds over the median time of its runs, summed over the
/// inputs. Summing over inputs averages their differing costs; the
/// per-input median discards runs a noisy neighbour slowed down.
double Throughput(const Phase& phase, bool scaled,
                  const std::set<size_t>& inputs = {}) {
  std::map<size_t, std::vector<double>> times;
  std::map<size_t, double> rounds;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const size_t input = phase.input[i];
    if (!inputs.empty() && inputs.count(input) == 0) {
      continue;
    }
    times[input].push_back(scaled ? phase.scaled_ms_of_run[i]
                                  : phase.wall_ms_of_run[i]);
    rounds[input] = static_cast<double>(phase.outcomes[i].rounds);
  }
  double total_rounds = 0.0, total_ms = 0.0;
  for (const auto& [input, t] : times) {
    total_rounds += rounds[input];
    total_ms += Median(t);
  }
  return Ratio(total_rounds, total_ms / 1e3);
}

/// Sum of one field over a phase's runs, divided by the run count.
template <typename T>
double PerRun(const Phase& phase, T Outcome::*field) {
  double total = 0.0;
  for (const Outcome& o : phase.outcomes) {
    total += static_cast<double>(o.*field);
  }
  return Ratio(total, static_cast<double>(phase.outcomes.size()));
}

/// Per-layer replays over what the traced phase captured.
struct Replays {
  std::vector<double> acquire_us;
  std::vector<double> allocate_us;
  double uncertainty_us = 0.0;
  double observe_us = 0.0;
  double step_us_p50 = 0.0;
  uint64_t scale_events = 0;
};

std::vector<double> ReplayAcquires(const AcquireReplay& replay,
                                   const std::vector<ModelId>& sequence) {
  constexpr size_t kMinSamples = 1000;
  constexpr double kMaxMs = 1500.0;
  std::vector<double> samples;
  const double start = NowMs();
  while (samples.size() < kMinSamples && NowMs() - start < kMaxMs) {
    Result<std::unique_ptr<ModelRegistry>> registry = replay.make_registry();
    if (!registry.ok()) {
      break;
    }
    for (const ModelId& id : sequence) {
      const auto t0 = std::chrono::steady_clock::now();
      auto model = (*registry)->Acquire(id);
      const auto t1 = std::chrono::steady_clock::now();
      if (!model.ok()) {
        break;
      }
      samples.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  return samples;
}

/// Splits a decision stream into per-run (tenant) sequences.
std::vector<std::vector<const rpas::obs::ScalingDecision*>> ByTenant(
    const std::vector<rpas::obs::ScalingDecision>& decisions) {
  std::map<std::string, std::vector<const rpas::obs::ScalingDecision*>> runs;
  for (const rpas::obs::ScalingDecision& d : decisions) {
    runs[d.run].push_back(&d);
  }
  std::vector<std::vector<const rpas::obs::ScalingDecision*>> out;
  for (auto& [name, seq] : runs) {
    std::sort(seq.begin(), seq.end(),
              [](const auto* a, const auto* b) { return a->step < b->step; });
    out.push_back(std::move(seq));
  }
  return out;
}

Replays RunReplays(const Workload& workload, const CallLog& log,
                   const Phase& traced, size_t replan_every) {
  const Outcome& first = traced.outcomes.front();
  Replays r;
  // Registry: the first traced run's acquire sequence on a fresh registry.
  if (std::optional<AcquireReplay> acquires = workload.Acquires()) {
    std::vector<ModelId> sequence = acquires->warmup;
    for (size_t i = 0; i < traced.first_run_forwards; ++i) {
      sequence.push_back(acquires->versions[log.forwards[i].version]);
    }
    r.acquire_us = ReplayAcquires(*acquires, sequence);
  }

  // Allocation and Eq. 8 over the captured forecasts.
  const std::unique_ptr<rpas::core::QuantileAllocator> allocator =
      workload.Allocator(log.forecasts);
  for (const rpas::ts::QuantileForecast& f : log.forecasts) {
    const std::vector<double> median = f.Median();
    rpas::core::ScalingConfig config;
    config.theta = std::max(
        std::accumulate(median.begin(), median.end(), 0.0) /
            static_cast<double>(std::max<size_t>(median.size(), 1)) / 4.0,
        1e-9);
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = allocator->Allocate(f, config);
    const auto t1 = std::chrono::steady_clock::now();
    if (plan.ok()) {
      r.allocate_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  if (!log.forecasts.empty()) {
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const rpas::ts::QuantileForecast& f : log.forecasts) {
      for (double u : rpas::core::QuantileUncertaintyPerStep(f)) {
        sink += u;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.uncertainty_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(log.forecasts.size());
    if (!std::isfinite(sink)) {
      r.uncertainty_us = 0.0;
    }
  }

  // Selection and the simulator over the recorded decision stream.
  const auto tenants = ByTenant(first.decisions);
  size_t tenant_rounds = 0;
  double observe_us = 0.0;
  std::vector<double> step_us;
  rpas::obs::MetricsRegistry metrics;
  for (const auto& seq : tenants) {
    if (seq.empty()) {
      continue;
    }
    for (size_t i = 1; i < seq.size(); ++i) {
      if (seq[i]->active_nodes != seq[i - 1]->active_nodes) {
        ++r.scale_events;
      }
    }
    rpas::select::WorkloadClassifier classifier({});
    rpas::select::SelectorOptions selector_options;
    selector_options.ladder_size = 2;
    rpas::select::AdaptiveSelector selector(selector_options);
    rpas::select::PreScaler prescaler({}, 1);
    int sink = 0;
    const auto s0 = std::chrono::steady_clock::now();
    for (size_t begin = 0; begin < seq.size(); begin += replan_every) {
      const size_t end = std::min(begin + replan_every, seq.size());
      std::vector<int> plan;
      double error = 0.0;
      for (size_t i = begin; i < end; ++i) {
        plan.push_back(seq[i]->target_nodes);
        error += std::abs(seq[i]->active_nodes - seq[i]->target_nodes) /
                 std::max(1.0, static_cast<double>(seq[i]->target_nodes));
        classifier.Push(seq[i]->workload);
      }
      sink += static_cast<int>(classifier.Classify());
      selector.ObserveRound(error / static_cast<double>(end - begin), true,
                            seq[begin]->faulted);
      prescaler.ObservePlan(plan, begin);
      for (size_t i = begin; i < end; ++i) {
        sink += prescaler.Merge(seq[i]->target_nodes, i);
      }
      ++tenant_rounds;
    }
    const auto s1 = std::chrono::steady_clock::now();
    observe_us += std::chrono::duration<double, std::micro>(s1 - s0).count();
    volatile int keep = sink;  // the replayed results stay observable
    (void)keep;

    // Cluster::Step without faults; capacity recovered from utilization.
    double capacity = 1.0;
    for (const auto* d : seq) {
      if (d->utilization > 0.0 && d->active_nodes > 0) {
        capacity = d->workload / (d->utilization * d->active_nodes);
        break;
      }
    }
    rpas::simdb::Cluster::Options cluster_options;
    cluster_options.node_capacity = capacity;
    cluster_options.initial_nodes = std::max(seq.front()->active_nodes, 1);
    cluster_options.metrics = &metrics;
    rpas::simdb::Cluster cluster(cluster_options);
    const auto c0 = std::chrono::steady_clock::now();
    for (const auto* d : seq) {
      cluster.Step(d->target_nodes, d->workload);
    }
    const auto c1 = std::chrono::steady_clock::now();
    step_us.push_back(
        std::chrono::duration<double, std::micro>(c1 - c0).count() /
        static_cast<double>(seq.size()));
  }
  r.observe_us = Ratio(observe_us, static_cast<double>(tenant_rounds));
  r.step_us_p50 = Median(step_us);
  return r;
}

/// Summed duration (ms) of the traced spans named `name` (prefix match
/// when `prefix`) that start inside the phase.
struct SpanTotals {
  std::map<std::string, double> ms;
  std::map<std::string, std::vector<double>> samples_us;
  double runs_ms = 0.0;       ///< entry-point spans
  double reference_ms = 0.0;  ///< reference-kernel spans
};

SpanTotals Aggregate(const std::vector<rpas::obs::TraceEvent>& events,
                     double phase_start_ns) {
  SpanTotals totals;
  for (const rpas::obs::TraceEvent& e : events) {
    const double us = static_cast<double>(e.duration_ns) / 1e3;
    totals.samples_us[e.name].push_back(us);
    if (static_cast<double>(e.start_ns) < phase_start_ns) {
      continue;  // set-up of the traced phase (pre-warm), not measured
    }
    totals.ms[e.name] += us / 1e3;
    if (e.name == "fleet.run" || e.name == "loop.run") {
      totals.runs_ms += us / 1e3;
    }
    if (e.name == "bench.reference") {
      totals.reference_ms += us / 1e3;
    }
  }
  return totals;
}

void Add(RunReport* report, const std::string& name, double value,
         const std::string& unit) {
  report->metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void PerLayerMetrics(const Workload& workload, const Phase& untraced,
                     const Phase& traced, const CallLog& log, bool fleet,
                     RunReport* report) {
  const double runs = static_cast<double>(traced.outcomes.size());
  const std::vector<rpas::obs::TraceEvent> events = log.trace->Snapshot();
  const SpanTotals spans = Aggregate(events, traced.start_ns);
  auto total_ms = [&](const std::string& name) {
    auto it = spans.ms.find(name);
    return it == spans.ms.end() ? 0.0 : it->second;
  };
  auto samples = [&](const std::string& name) {
    auto it = spans.samples_us.find(name);
    return it == spans.samples_us.end() ? std::vector<double>{} : it->second;
  };
  const double load_ms = total_ms("nn.ckpt_load");
  const double forward_ms = total_ms("forecast.forward");
  const double finetune_ms = total_ms("stream.refresh.finetune");
  const double refresh_ms = total_ms("stream.refresh.recursive") + finetune_ms +
                            total_ms("stream.refresh.resync") +
                            total_ms("stream.refresh.retrain");
  const double child_ms = load_ms + forward_ms + refresh_ms;
  const double self_ms = std::max(spans.runs_ms - child_ms, 0.0);

  size_t rows = 0;
  for (const ForwardCall& call : log.forwards) {
    rows += call.rows;
  }
  const Replays replays =
      RunReplays(workload, log, traced, fleet ? kFleetReplan : kLoopReplan);

  const double hits = PerRun(traced, &Outcome::hits);
  const double misses = PerRun(traced, &Outcome::misses);
  Add(report, "serve.registry.hit_ratio", Ratio(hits, hits + misses), "ratio");
  Add(report, "serve.registry.ckpt_loads",
      PerRun(traced, &Outcome::loads), "count");
  Add(report, "serve.registry.evictions",
      PerRun(traced, &Outcome::evictions), "count");
  Add(report, "serve.registry.charged_bytes",
      PerRun(traced, &Outcome::charged_bytes), "bytes");
  Add(report, "serve.registry.resident_bytes",
      PerRun(traced, &Outcome::resident_bytes), "bytes");
  Add(report, "serve.registry.acquire_us.p50",
      Percentile(replays.acquire_us, 0.5), "us");
  Add(report, "serve.registry.acquire_us.p99",
      Percentile(replays.acquire_us, 0.99), "us");

  const std::vector<double> load_us = samples("nn.ckpt_load");
  Add(report, "nn.ckpt_load_ms", Ratio(load_ms, runs), "ms");
  Add(report, "nn.ckpt_load_us.p50", Percentile(load_us, 0.5), "us");
  Add(report, "nn.ckpt_load_us.p99", Percentile(load_us, 0.99), "us");
  const double steps =
      PerRun(traced, &Outcome::gradient_steps);
  Add(report, "nn.finetune_steps", steps, "count");
  Add(report, "nn.finetune_us_per_step",
      Ratio(finetune_ms * 1e3, static_cast<double>(log.gradient_steps)), "us");

  Add(report, "forecast.forward_ms", Ratio(forward_ms, runs), "ms");
  Add(report, "forecast.forward_us_per_row",
      Ratio(forward_ms * 1e3, static_cast<double>(rows)), "us");
  Add(report, "forecast.rows_per_call",
      Ratio(static_cast<double>(rows),
            static_cast<double>(log.forwards.size())),
      "count");
  Add(report, "tensor.forward_flops", Ratio(log.forward_flops, runs), "count");
  Add(report, "tensor.forward_gflops",
      Ratio(log.forward_flops, forward_ms * 1e6), "GFLOP/s");

  const double batches = PerRun(traced, &Outcome::batches);
  Add(report, "serve.batching.batches", batches, "count");
  Add(report, "serve.batching.rows_per_batch",
      Ratio(PerRun(traced, &Outcome::batch_rows), batches),
      "count");
  Add(report, "serve.admission.admitted",
      PerRun(traced, &Outcome::admitted), "count");
  Add(report, "serve.admission.throttled",
      PerRun(traced, &Outcome::throttled), "count");
  Add(report, "serve.admission.shed",
      PerRun(traced, &Outcome::shed), "count");
  Add(report, "serve.fleet.self_ms", fleet ? Ratio(self_ms, runs) : 0.0, "ms");

  std::vector<double> plan_ms;
  for (const Outcome& o : traced.outcomes) {
    plan_ms.insert(plan_ms.end(), o.plan_ms.begin(), o.plan_ms.end());
  }
  Add(report, "core.loop_self_ms", fleet ? 0.0 : Ratio(self_ms, runs), "ms");
  Add(report, "core.plan_ms.p50", Percentile(plan_ms, 0.5), "ms");
  Add(report, "core.plan_ms.p99", Percentile(plan_ms, 0.99), "ms");
  Add(report, "core.allocate_us.p50", Percentile(replays.allocate_us, 0.5),
      "us");
  Add(report, "core.allocate_us.p99", Percentile(replays.allocate_us, 0.99),
      "us");
  Add(report, "core.uncertainty_us", replays.uncertainty_us, "us");
  Add(report, "core.fallback_rounds",
      PerRun(traced, &Outcome::fallback), "count");
  Add(report, "core.stale_rounds",
      PerRun(traced, &Outcome::stale), "count");
  Add(report, "core.retried_rounds",
      PerRun(traced, &Outcome::retried), "count");

  const double points =
      PerRun(traced, &Outcome::stream_points);
  Add(report, "stream.refresh_ms", Ratio(refresh_ms, runs), "ms");
  Add(report, "stream.refresh_us_per_point",
      Ratio(refresh_ms * 1e3, points * runs), "us");
  Add(report, "stream.points", points, "count");
  Add(report, "stream.dropped",
      PerRun(traced, &Outcome::stream_dropped), "count");
  Add(report, "stream.resyncs",
      PerRun(traced, &Outcome::resyncs), "count");
  Add(report, "stream.full_retrains",
      PerRun(traced, &Outcome::full_retrains), "count");
  Add(report, "stream.staleness_steps.mean",
      PerRun(traced, &Outcome::staleness_mean), "steps");

  Add(report, "select.tier_switches",
      PerRun(traced, &Outcome::tier_switches), "count");
  Add(report, "select.prescale_activations",
      PerRun(traced, &Outcome::prescale_activations),
      "count");
  Add(report, "select.prescale_floor_raised_steps",
      PerRun(traced, &Outcome::floor_raised_steps),
      "count");
  Add(report, "select.observe_us", replays.observe_us, "us");

  Add(report, "simdb.step_us.p50", replays.step_us_p50, "us");
  Add(report, "simdb.scale_events", static_cast<double>(replays.scale_events),
      "count");
  Add(report, "simdb.faulted_steps",
      PerRun(traced, &Outcome::faulted_steps), "count");

  // Compare the halves on the inputs both ran.
  const std::set<size_t> shared(traced.input.begin(), traced.input.end());
  const double untraced_tput = Throughput(untraced, true, shared);
  const double traced_tput = Throughput(traced, true, shared);
  Add(report, "obs.trace_overhead_pct",
      100.0 * Ratio(untraced_tput - traced_tput, untraced_tput), "%");
  Add(report, "obs.unattributed_pct",
      100.0 *
          Ratio(traced.wall_ms - spans.runs_ms - spans.reference_ms,
                traced.wall_ms),
      "%");

  if (log.trace->dropped() > 0) {
    report->problems.push_back("trace buffer overflowed; spans were dropped");
  }
}

/// Cross-checks the decorator's own count against the program's: every
/// fresh round is one forecast row, and so is every round whose forecast
/// was served but whose plan then failed.
void CheckTraced(const Phase& traced, const CallLog& log, RunReport* report) {
  uint64_t expected = 0, rows = 0;
  for (const Outcome& o : traced.outcomes) {
    expected += o.fresh + o.error_rounds;
  }
  for (const ForwardCall& call : log.forwards) {
    rows += call.rows;
  }
  if (rows != expected) {
    report->problems.push_back(StrFormat(
        "decorator served %llu rows, program reports %llu fresh or errored "
        "rounds",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(expected)));
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"fleet-cold", "fleet-warm",
                                              "loop-stream"};
  return names;
}

Result<RunReport> RunWorkload(const RunConfig& config) {
  RunReport report;
  std::unique_ptr<Workload> workload;
  std::vector<double> wall_setup_s, setup_s;
  const int setups = config.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    workload = MakeWorkload(config);
    if (workload == nullptr) {
      return Status::InvalidArgument("unknown workload " + config.workload);
    }
    const double before = MedianReferenceMs(3);
    rpas::Stopwatch watch;
    RPAS_RETURN_IF_ERROR(workload->Setup());
    const double seconds = watch.ElapsedSeconds();
    const double reference = 0.5 * (before + MedianReferenceMs(3));
    wall_setup_s.push_back(seconds);
    setup_s.push_back(seconds * kReferenceHostMs / reference);
  }
  const bool fleet = config.workload != "loop-stream";

  std::map<size_t, std::vector<uint64_t>> fingerprints;
  Status error = Status::OK();
  const double untraced_seconds =
      config.trace ? config.seconds / 2.0 : config.seconds;
  // An untraced run covers every input at least once, so its quality
  // metrics always average the same inputs; the halves of a traced run
  // compare the inputs they share.
  const size_t min_reps =
      config.trace ? kMinReps : std::max(kMinReps, workload->NumInputs());
  const Phase untraced = Measure(workload.get(), untraced_seconds, min_reps,
                                 nullptr, &fingerprints, &report, &error);
  RPAS_RETURN_IF_ERROR(error);
  report.wall_tenant_rounds_per_s = Throughput(untraced, false);
  report.wall_setup_s = Median(wall_setup_s);
  report.reference_ms = Median(untraced.reference_ms);

  if (!config.trace) {
    // Quality metrics: mean over the distinct inputs' first runs (every
    // repeat of one input is identical, which Measure checked).
    std::map<size_t, const Outcome*> firsts;
    for (size_t i = 0; i < untraced.outcomes.size(); ++i) {
      firsts.emplace(untraced.input[i], &untraced.outcomes[i]);
    }
    double under = 0.0, over = 0.0, slo = 0.0, fresh = 0.0, rounds = 0.0;
    for (const auto& [input, o] : firsts) {
      under += o->under;
      over += o->over;
      slo += o->slo;
      fresh += static_cast<double>(o->fresh);
      rounds += static_cast<double>(o->rounds);
    }
    const double n = static_cast<double>(firsts.size());
    Add(&report, "tenant_rounds_per_s", Throughput(untraced, true), "1/s");
    Add(&report, "setup_s", Median(setup_s), "s");
    Add(&report, "peak_rss_mb", PeakRssMb(), "MiB");
    Add(&report, "under_provision_rate", under / n, "ratio");
    Add(&report, "over_provision_rate", over / n, "ratio");
    Add(&report, "slo_violation_rate", slo / n, "ratio");
    Add(&report, "fresh_round_share", Ratio(fresh, rounds), "ratio");
  } else {
    rpas::obs::TraceBuffer trace(/*capacity=*/1 << 20, /*enabled=*/true);
    CallLog log(&trace);
    log.max_forecasts = 2048;
    RPAS_RETURN_IF_ERROR(workload->PrepareTraced(&log));
    const Phase traced = Measure(workload.get(), config.seconds / 2.0,
                                 kMinReps, &log, &fingerprints, &report,
                                 &error);
    RPAS_RETURN_IF_ERROR(error);
    CheckTraced(traced, log, &report);
    PerLayerMetrics(*workload, untraced, traced, log, fleet, &report);
  }
  report.correct = report.problems.empty() && report.failed == 0;
  return report;
}

}  // namespace perfbench
