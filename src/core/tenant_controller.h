#ifndef RPAS_CORE_TENANT_CONTROLLER_H_
#define RPAS_CORE_TENANT_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/online_loop.h"
#include "core/scaling_config.h"
#include "forecast/forecaster.h"
#include "forecast/rolling_wql.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "select/classifier.h"
#include "select/prescaler.h"
#include "select/selector.h"
#include "simdb/cluster.h"
#include "simdb/faults.h"
#include "stream/refresher.h"
#include "stream/ring.h"
#include "ts/quantile_forecast.h"
#include "ts/time_series.h"

namespace rpas::core {

/// How a planning round is served.
enum class RoundPlan {
  kFresh,     ///< a fresh forecast is planned (possibly after retries)
  kStale,     ///< the forecaster served its cached forecast: replay last plan
  kFallback,  ///< the reactive fallback plan (BuildFallbackPlan)
};

/// One tenant's side of the deployment cycle of paper Fig. 2 — observe
/// workload, forecast, allocate, actuate — with the state it carries across
/// planning rounds: the simulated cluster, the fault schedule, the
/// last-good plan and the reactive window behind the degradation policy,
/// the ingest ring and incremental refresher, the adaptive selector and
/// pre-scaler, and forecast staleness.
///
/// A round is a fixed call sequence, driven by core::RunOnlineLoop (one
/// controller) and serve::RunFleet (one per tenant):
///
///   BeginRound(step) -> [Ingest()] -> InstallFresh / InstallStale /
///   InstallFallback -> Step(step) ... Step(step + k) -> ... -> Finish()
///
/// The controller never plans: the driver obtains the forecast (a manager's
/// PlanNext, or a batched forward plus an allocator), decides what a
/// returned error means, and decides when the next round starts.
class TenantController {
 public:
  struct Options {
    /// theta and min/max nodes; sizes the fallback plan and the
    /// provisioning rates.
    ScalingConfig config;
    DegradationPolicy degradation;
    simdb::Cluster::Options cluster;
    /// Injected fault schedule; an inert plan (!Any()) injects nothing.
    simdb::FaultPlan faults;
    /// Capacity of the ingest ring every realized point is pushed through;
    /// 0 = no ring.
    size_t ring_capacity = 0;
    /// Fitted forecaster kept current by an IncrementalRefresher (primed on
    /// the history at Create). Null = no refresh. Requires a ring. With a
    /// refresher, injected ingest stalls hold points back at the producer
    /// and the planner sees only what the stream delivered.
    forecast::Forecaster* refresh_target = nullptr;
    stream::RefresherOptions refresher;
    /// Adaptive selection over a ladder of this many tiers; 0 = off.
    size_t ladder_size = 0;
    select::ClassifierOptions classifier;
    /// `selector.ladder_size` is overwritten with `ladder_size`.
    select::SelectorOptions selector;
    /// Pre-scale ahead of predicted spikes (needs ladder_size > 0).
    bool prescale = false;
    select::PreScalerOptions prescaler;
    /// Observes every step's forecast staleness when non-null.
    obs::Histogram* staleness_hist = nullptr;
    /// Step-level fault events (actuation, crash, spike, ingest stall and
    /// burst) are appended here when non-null.
    std::vector<simdb::FaultEvent>* fault_log = nullptr;
  };

  /// What the injected faults dictate for one planning round.
  struct Round {
    RoundPlan plan = RoundPlan::kFresh;
    /// Forecaster attempts that failed before one would succeed.
    int failed_attempts = 0;
    /// Which forecaster fault caused them (meaningful when > 0).
    simdb::FaultType fault = simdb::FaultType::kForecasterNan;
  };

  struct StepOutcome {
    simdb::StepStats stats;
    simdb::StepFaults faults;
  };

  /// `series` holds the tenant's whole trace; its first `history` points
  /// are observed before step 0, and step s realizes series[history + s].
  /// The controller accounts the run into `result`: the allocation, the
  /// provisioning and cluster outcomes, plans_made / stale_plans /
  /// fallback_plans, faulted and degraded steps, ingest, refresh, selection
  /// and staleness. Every other field stays the driver's. Both must outlive
  /// the controller.
  static Result<std::unique_ptr<TenantController>> Create(
      const ts::TimeSeries& series, size_t history, Options options,
      OnlineLoopResult* result);

  TenantController(const TenantController&) = delete;
  TenantController& operator=(const TenantController&) = delete;

  /// Opens the planning round starting at `step`: draws the round's faults,
  /// scores the expiring fresh forecast against what realized since (for
  /// the selector's rolling wQL and the refresher's drift guard), and
  /// moves the selector to the round's tier.
  Round BeginRound(size_t step);

  /// Drains the ingest ring. With a refresher, folds the drained points
  /// into the forecaster and returns the refresher's status.
  Status Ingest();

  /// End (exclusive, absolute index into the series) of the history the
  /// planner may see: everything realized so far, or with a refresher
  /// what the stream has delivered.
  size_t ObservedEnd() const;

  /// Installs a fresh plan for the open round. Internal on an empty plan.
  Status InstallFresh(std::vector<int> nodes, ts::QuantileForecast forecast);
  /// Replays the last-good plan from its start (needs one: see Round).
  void InstallStale();
  /// Installs the reactive fallback plan.
  void InstallFallback();

  /// True before the first plan, once the installed plan was served to
  /// its end, or once `replan_every` (> 0) of its steps were served.
  bool PlanExpired(size_t replan_every) const;

  /// Simulates `step` (steps run consecutively from 0): the plan's target,
  /// raised to the pre-scale floor, actuated against the realized workload.
  /// A plan shorter than the round holds its last step.
  StepOutcome Step(size_t step);

  /// Completes the accounting into the result; call once, after the last
  /// Step.
  void Finish();

  size_t tier() const { return selector_ != nullptr ? selector_->tier() : 0; }
  int current_nodes() const { return current_nodes_; }
  bool has_last_good() const { return !last_good_.empty(); }
  /// Points read back from the ingest ring so far.
  uint64_t points_drained() const { return points_drained_; }

 private:
  TenantController(const ts::TimeSeries& series, size_t history,
                   Options options, OnlineLoopResult* result);

  simdb::StepFaults FaultsAt(size_t step) const;
  void Log(size_t step, simdb::FaultType type, double magnitude);

  const ts::TimeSeries& series_;
  const size_t history_;
  const Options options_;
  OnlineLoopResult& result_;
  const size_t window_;  ///< reactive window length (>= 1)
  simdb::Cluster cluster_;
  std::optional<simdb::FaultInjector> injector_;
  size_t round_step_ = 0;  ///< first step of the open round

  std::vector<int> plan_;
  std::vector<int> last_good_;
  size_t plan_cursor_ = 0;
  bool plan_is_fallback_ = false;
  int current_nodes_;
  std::vector<double> recent_;  ///< trailing realized workloads

  std::unique_ptr<stream::IngestRing> ring_;
  std::unique_ptr<stream::StreamCursor> cursor_;
  std::unique_ptr<stream::IncrementalRefresher> refresher_;
  std::vector<double> stall_queue_;  ///< points held by a stalled producer
  uint64_t points_drained_ = 0;

  std::unique_ptr<select::WorkloadClassifier> classifier_;
  std::unique_ptr<select::AdaptiveSelector> selector_;
  std::unique_ptr<select::PreScaler> prescaler_;
  std::unique_ptr<forecast::RollingWql> rolling_;
  // Newest fresh forecast (kept only for the selector or the refresher)
  // and the step of its first prediction.
  std::optional<ts::QuantileForecast> live_forecast_;
  size_t live_forecast_step_ = 0;
  size_t last_fresh_step_ = 0;

  size_t steps_done_ = 0;
  std::vector<double> realized_;
  double utilization_sum_ = 0.0;
  size_t slo_violations_ = 0;
  uint64_t staleness_sum_ = 0;
};

/// The exporters' record of one simulated step. `faulted` is the driver's
/// own notion of a faulted step.
obs::ScalingDecision MakeScalingDecision(const simdb::StepStats& stats,
                                         const std::string& run,
                                         bool faulted);

}  // namespace rpas::core

#endif  // RPAS_CORE_TENANT_CONTROLLER_H_
