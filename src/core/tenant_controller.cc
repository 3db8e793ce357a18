#include "core/tenant_controller.h"

#include <algorithm>
#include <utility>

#include "core/evaluator.h"
#include "ts/metrics.h"

namespace rpas::core {

Result<std::unique_ptr<TenantController>> TenantController::Create(
    const ts::TimeSeries& series, size_t history, Options options,
    OnlineLoopResult* result) {
  if (options.refresh_target != nullptr && options.ring_capacity == 0) {
    return Status::InvalidArgument("incremental refresh needs an ingest ring");
  }
  std::unique_ptr<TenantController> controller(
      new TenantController(series, history, std::move(options), result));
  if (controller->refresher_ != nullptr) {
    RPAS_RETURN_IF_ERROR(
        controller->refresher_->Prime(series.Slice(0, history)));
  }
  return controller;
}

TenantController::TenantController(const ts::TimeSeries& series,
                                   size_t history, Options options,
                                   OnlineLoopResult* result)
    : series_(series),
      history_(history),
      options_(std::move(options)),
      result_(*result),
      window_(std::max<size_t>(options_.degradation.reactive_window, 1)),
      cluster_(options_.cluster),
      current_nodes_(options_.cluster.initial_nodes) {
  if (options_.faults.Any()) {
    injector_.emplace(options_.faults);
  }
  // The reactive window is seeded from the observed history, so
  // degradation works even on the very first round.
  for (size_t back = std::min(window_, history); back > 0; --back) {
    recent_.push_back(series.values[history - back]);
  }
  if (options_.ring_capacity > 0) {
    ring_ = std::make_unique<stream::IngestRing>(options_.ring_capacity);
    cursor_ = std::make_unique<stream::StreamCursor>(ring_.get());
  }
  if (options_.refresh_target != nullptr) {
    refresher_ = std::make_unique<stream::IncrementalRefresher>(
        options_.refresh_target, options_.refresher);
  }
  if (options_.ladder_size > 0) {
    // Seed the pattern — and the starting tier — from observed history.
    // Selection is a pure function of the observed sequence (no RNG), so
    // enabling it perturbs no seeded schedule.
    classifier_ =
        std::make_unique<select::WorkloadClassifier>(options_.classifier);
    classifier_->PushAll(std::vector<double>(
        series.values.begin(),
        series.values.begin() + static_cast<long>(history)));
    select::SelectorOptions selector_options = options_.selector;
    selector_options.ladder_size = options_.ladder_size;
    selector_ = std::make_unique<select::AdaptiveSelector>(selector_options);
    selector_->SeedFromPattern(classifier_->Classify());
    rolling_ =
        std::make_unique<forecast::RollingWql>(selector_options.wql_window);
    if (options_.prescale) {
      prescaler_ = std::make_unique<select::PreScaler>(
          options_.prescaler, options_.config.min_nodes);
    }
  }
}

simdb::StepFaults TenantController::FaultsAt(size_t step) const {
  return injector_.has_value() ? injector_->FaultsForStep(step)
                               : simdb::StepFaults{};
}

void TenantController::Log(size_t step, simdb::FaultType type,
                           double magnitude) {
  if (options_.fault_log != nullptr) {
    options_.fault_log->push_back(
        {step, type, simdb::FaultAction::kNone, 0, magnitude});
  }
}

TenantController::Round TenantController::BeginRound(size_t step) {
  ++result_.plans_made;
  round_step_ = step;
  const simdb::StepFaults faults = FaultsAt(step);
  Round round;
  round.failed_attempts =
      faults.forecaster_timeout_attempts + (faults.forecaster_nan ? 1 : 0);
  round.fault = faults.forecaster_timeout_attempts > 0
                    ? simdb::FaultType::kForecasterTimeout
                    : simdb::FaultType::kForecasterNan;
  if (faults.stale_forecast && !last_good_.empty()) {
    round.plan = RoundPlan::kStale;
  } else if (round.failed_attempts > options_.degradation.max_retries) {
    round.plan = RoundPlan::kFallback;
  }

  // Score the expiring fresh forecast's realized prefix.
  double wql = 0.0;
  bool wql_valid = false;
  if (live_forecast_.has_value() && step > live_forecast_step_) {
    const size_t elapsed =
        std::min(step - live_forecast_step_, live_forecast_->Horizon());
    const auto begin = series_.values.begin() +
                       static_cast<long>(history_ + live_forecast_step_);
    wql = ts::PrefixMeanWql(
        *live_forecast_,
        std::vector<double>(begin, begin + static_cast<long>(elapsed)));
    wql_valid = true;
    if (rolling_ != nullptr) {
      rolling_->Observe(wql);
    }
    if (refresher_ != nullptr) {
      refresher_->ObserveForecastLoss(wql);
    }
  }
  if (selector_ != nullptr) {
    selector_->ObserveRound(wql, wql_valid, round.plan != RoundPlan::kFresh);
  }
  return round;
}

Status TenantController::Ingest() {
  if (cursor_ == nullptr) {
    return Status::OK();
  }
  // Only the counts matter: the refresher reads the points from history.
  const stream::StreamCursor::Batch batch = cursor_->Poll(nullptr);
  points_drained_ += batch.count;
  if (refresher_ == nullptr) {
    return Status::OK();
  }
  return refresher_
      ->Refresh(series_.Slice(0, ObservedEnd()), batch.count, batch.missed)
      .status();
}

size_t TenantController::ObservedEnd() const {
  return history_ + (refresher_ != nullptr
                         ? static_cast<size_t>(cursor_->next_seq())
                         : steps_done_);
}

Status TenantController::InstallFresh(std::vector<int> nodes,
                                      ts::QuantileForecast forecast) {
  if (nodes.empty()) {
    return Status::Internal("planner returned an empty plan");
  }
  plan_ = std::move(nodes);
  last_good_ = plan_;
  plan_cursor_ = 0;
  plan_is_fallback_ = false;
  // A fresh forecast resets staleness and arms the next round's scoring.
  last_fresh_step_ = round_step_;
  if (selector_ != nullptr || refresher_ != nullptr) {
    live_forecast_ = std::move(forecast);
    live_forecast_step_ = round_step_;
  }
  if (prescaler_ != nullptr) {
    // The fresh quantile plan is the spike predictor: schedule a floor
    // raise lead_steps ahead of any predicted spike.
    prescaler_->ObservePlan(plan_, round_step_);
  }
  return Status::OK();
}

void TenantController::InstallStale() {
  plan_ = last_good_;
  plan_cursor_ = 0;
  plan_is_fallback_ = false;
  ++result_.stale_plans;
}

void TenantController::InstallFallback() {
  plan_ = BuildFallbackPlan(recent_, last_good_, current_nodes_,
                            options_.config, options_.degradation);
  plan_cursor_ = 0;
  plan_is_fallback_ = true;
  ++result_.fallback_plans;
}

bool TenantController::PlanExpired(size_t replan_every) const {
  return plan_cursor_ >= plan_.size() ||
         (replan_every > 0 && plan_cursor_ >= replan_every);
}

TenantController::StepOutcome TenantController::Step(size_t step) {
  StepOutcome out;
  out.faults = FaultsAt(step);
  int target = plan_[std::min(plan_cursor_++, plan_.size() - 1)];
  if (prescaler_ != nullptr) {
    // Monotone merge: the pre-scale floor can only raise the decision,
    // never fight the plan downward.
    target = prescaler_->Merge(target, step);
  }
  out.stats = cluster_.Step(target, series_.values[history_ + step],
                            out.faults);
  const simdb::StepStats& stats = out.stats;
  current_nodes_ = cluster_.NumNodes();
  if (out.faults.Any()) {
    ++result_.faulted_steps;
  }
  if (plan_is_fallback_) {
    ++result_.degraded_steps;
  }
  if (injector_.has_value()) {
    if (stats.nodes_delayed > 0) {
      Log(step, simdb::FaultType::kActuationDelay, stats.nodes_delayed);
    }
    if (stats.nodes_denied > 0) {
      Log(step, simdb::FaultType::kPartialScaleOut, stats.nodes_denied);
    }
    if (out.faults.crash_nodes > 0 && stats.nodes_failed > 0) {
      Log(step, simdb::FaultType::kNodeCrash, stats.nodes_failed);
    }
    if (out.faults.workload_multiplier != 1.0) {
      Log(step, simdb::FaultType::kWorkloadSpike,
          out.faults.workload_multiplier);
    }
  }
  recent_.push_back(stats.workload);
  if (recent_.size() > window_) {
    recent_.erase(recent_.begin());
  }
  if (classifier_ != nullptr) {
    classifier_->Push(stats.workload);
  }
  realized_.push_back(stats.workload);
  result_.allocation.push_back(target);
  utilization_sum_ += stats.avg_utilization;
  if (stats.slo_violated) {
    ++slo_violations_;
  }

  // Forecast staleness: age of the newest fresh plan.
  const uint64_t staleness = static_cast<uint64_t>(step - last_fresh_step_);
  staleness_sum_ += staleness;
  result_.max_staleness_points =
      std::max(result_.max_staleness_points, staleness);
  if (options_.staleness_hist != nullptr) {
    options_.staleness_hist->Observe(static_cast<double>(staleness));
  }

  // Producer side: the realized point enters the stream after the step, so
  // the next round can consume it. With a refresher, a stalled producer
  // queues points and burst-flushes them when the stall clears.
  if (ring_ != nullptr) {
    if (refresher_ != nullptr && out.faults.ingest_stalled) {
      stall_queue_.push_back(stats.workload);
      ++result_.ingest_stall_steps;
      Log(step, simdb::FaultType::kIngestStall,
          static_cast<double>(stall_queue_.size()));
    } else {
      if (!stall_queue_.empty()) {
        for (double queued : stall_queue_) {
          ring_->Push(queued);
        }
        result_.points_ingested += stall_queue_.size();
        ++result_.ingest_bursts;
        Log(step, simdb::FaultType::kIngestBurst,
            static_cast<double>(stall_queue_.size()));
        stall_queue_.clear();
      }
      ring_->Push(stats.workload);
      ++result_.points_ingested;
    }
  }
  ++steps_done_;
  return out;
}

void TenantController::Finish() {
  // Under workload-spike faults the realized demand is what the cluster
  // saw, so provisioning rates report against the faulted workload.
  const ProvisioningReport provisioning =
      EvaluateAllocation(realized_, result_.allocation, options_.config);
  result_.under_provision_rate = provisioning.under_provision_rate;
  result_.over_provision_rate = provisioning.over_provision_rate;
  const double steps = static_cast<double>(steps_done_);
  result_.mean_utilization = utilization_sum_ / steps;
  result_.slo_violation_rate = static_cast<double>(slo_violations_) / steps;
  result_.mean_staleness_points = static_cast<double>(staleness_sum_) / steps;
  result_.total_node_steps = cluster_.total_node_steps();
  result_.scale_events = cluster_.total_scale_events();
  result_.direction_changes = cluster_.total_direction_changes();
  result_.points_pending = stall_queue_.size();
  if (cursor_ != nullptr) {
    // The cursor's missed count, not ring_->dropped(): the tail advances
    // past already-read slots too, and only unread overwrites are losses.
    result_.points_dropped = cursor_->missed_total();
  }
  if (refresher_ != nullptr) {
    result_.refresh = refresher_->stats();
  }
  if (selector_ != nullptr) {
    OnlineLoopResult::SelectionOutcome& selection = result_.selection;
    if (prescaler_ != nullptr) {
      // Force rollback of any in-flight floor raise so activations always
      // balance rollbacks at the end of a run.
      prescaler_->Finish();
      selection.prescaler = prescaler_->stats();
    }
    selection.enabled = true;
    selection.final_tier = selector_->tier();
    selection.pattern = classifier_->Classify();
    selection.rolling_wql = rolling_->Mean();
    selection.selector = selector_->stats();
  }
}

obs::ScalingDecision MakeScalingDecision(const simdb::StepStats& stats,
                                         const std::string& run,
                                         bool faulted) {
  obs::ScalingDecision d;
  d.run = run;
  d.step = static_cast<uint64_t>(stats.step);
  d.target_nodes = stats.target_nodes;
  d.active_nodes = stats.active_nodes;
  d.workload = stats.workload;
  d.utilization = stats.avg_utilization;
  d.under_provisioned = stats.under_provisioned;
  d.slo_violated = stats.slo_violated;
  d.faulted = faulted;
  return d;
}

}  // namespace rpas::core
