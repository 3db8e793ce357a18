#include "core/online_loop.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "core/tenant_controller.h"

namespace rpas::core {

std::vector<int> BuildFallbackPlan(const std::vector<double>& recent,
                                   const std::vector<int>& last_good_plan,
                                   int current_nodes,
                                   const ScalingConfig& config,
                                   const DegradationPolicy& policy) {
  double peak = 0.0;
  for (double w : recent) {
    peak = std::max(peak, w);
  }
  int hold = RequiredNodes(peak * policy.reactive_safety_margin, config);
  if (!last_good_plan.empty()) {
    hold = std::max(hold, last_good_plan.back());
  }
  hold = std::max(hold, current_nodes);
  const size_t steps = std::max<size_t>(policy.fallback_plan_steps, 1);
  return std::vector<int>(steps, hold);
}

Result<OnlineLoopResult> RunOnlineLoop(const RobustAutoScalingManager& manager,
                                       const ts::TimeSeries& series,
                                       size_t eval_start, size_t num_steps,
                                       const OnlineLoopOptions& options) {
  if (num_steps == 0) {
    return Status::InvalidArgument("online loop needs at least one step");
  }
  if (eval_start + num_steps > series.size()) {
    return Status::InvalidArgument(
        "evaluation range extends past the series");
  }
  if (eval_start < manager.ContextLength()) {
    return Status::InvalidArgument(
        "eval_start leaves less history than the forecaster's context "
        "length");
  }

  const bool streaming =
      options.streaming.refresh_mode == RefreshMode::kIncremental;
  if (streaming && options.streaming.refresh_target == nullptr) {
    return Status::InvalidArgument(
        "incremental refresh mode needs a refresh_target forecaster");
  }

  const bool selecting =
      options.selection.mode == SelectionMode::kAdaptive;
  if (selecting) {
    if (streaming) {
      return Status::InvalidArgument(
          "adaptive selection cannot be combined with incremental refresh: "
          "the refresher tracks one model, the ladder switches models");
    }
    if (options.selection.ladder.empty()) {
      return Status::InvalidArgument(
          "adaptive selection needs a non-empty candidate ladder");
    }
    for (const RobustAutoScalingManager* candidate :
         options.selection.ladder) {
      if (candidate == nullptr) {
        return Status::InvalidArgument(
            "adaptive selection ladder contains a null manager");
      }
      if (eval_start < candidate->ContextLength()) {
        return Status::InvalidArgument(
            "eval_start leaves less history than a ladder candidate's "
            "context length");
      }
    }
  }

  obs::TraceBuffer* trace = obs::ResolveTrace(options.trace);
  obs::Span run_span(trace, "online.run", static_cast<int64_t>(num_steps));
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options.metrics);

  OnlineLoopResult result;
  result.steps.reserve(num_steps);

  TenantController::Options controller_options;
  controller_options.config = manager.config();
  controller_options.degradation = options.degradation;
  controller_options.cluster = options.cluster;
  controller_options.faults = options.faults;
  if (streaming) {
    controller_options.ring_capacity = options.streaming.ring_capacity;
    controller_options.refresh_target = options.streaming.refresh_target;
    controller_options.refresher = options.streaming.refresher;
  }
  if (selecting) {
    controller_options.ladder_size = options.selection.ladder.size();
    controller_options.classifier = options.selection.classifier;
    controller_options.selector = options.selection.selector;
    controller_options.prescale = options.selection.prescale;
    controller_options.prescaler = options.selection.prescaler;
  }
  controller_options.staleness_hist =
      metrics->GetHistogram("online.staleness_points");
  controller_options.fault_log = &result.fault_events;
  RPAS_ASSIGN_OR_RETURN(
      std::unique_ptr<TenantController> controller,
      TenantController::Create(series, eval_start,
                               std::move(controller_options), &result));

  const bool inject = options.faults.Any();
  double uncertainty_sum = 0.0;
  size_t uncertainty_n = 0;
  for (size_t i = 0; i < num_steps; ++i) {
    if (controller->PlanExpired(options.replan_every)) {
      // ---- Planning round, with graceful degradation under faults. ----
      obs::Span plan_span(trace, "online.plan", static_cast<int64_t>(i));
      const TenantController::Round round = controller->BeginRound(i);
      // In kOff mode planning always goes to `manager`, so the off path is
      // bit-identical to the pre-selection loop.
      const RobustAutoScalingManager* active =
          selecting ? options.selection.ladder[controller->tier()] : &manager;
      if (selecting) {
        result.selection.tier_by_round.push_back(controller->tier());
      }
      if (streaming) {
        // Fold the points ingested since the last round into the
        // forecaster before planning.
        rpas::Stopwatch refresh_watch;
        RPAS_RETURN_IF_ERROR(controller->Ingest());
        const double refresh_ms = refresh_watch.ElapsedMillis();
        result.round_refresh_millis.push_back(refresh_ms);
        result.total_refresh_millis += refresh_ms;
        metrics->GetHistogram("stream.refresh_ms", {},
                              /*deterministic=*/false)
            ->Observe(refresh_ms);
      }
      rpas::Stopwatch plan_watch;
      const simdb::FaultAction fallback_action =
          controller->has_last_good() ? simdb::FaultAction::kFallbackLastGood
                                      : simdb::FaultAction::kFallbackReactive;
      switch (round.plan) {
        case RoundPlan::kStale:
          // The forecaster served its cached previous forecast; the round
          // silently replays the last known-good plan from its start.
          controller->InstallStale();
          result.fault_events.push_back({i, simdb::FaultType::kStaleForecast,
                                         simdb::FaultAction::kNone, 0, 0.0});
          break;
        case RoundPlan::kFallback:
          // Bounded retry exhausted: degrade instead of aborting.
          ++result.forecaster_faults;
          result.fault_events.push_back({i, round.fault, fallback_action,
                                         round.failed_attempts, 0.0});
          controller->InstallFallback();
          break;
        case RoundPlan::kFresh: {
          // Either a clean round, or a faulted one whose
          // (failed_attempts + 1)-th attempt lands within the retry budget
          // — the successful attempt's output is what PlanNext returns.
          auto plan_or = active->PlanNext(
              series.Slice(0, controller->ObservedEnd()),
              controller->current_nodes());
          if (!plan_or.ok()) {
            if (!inject) {
              return plan_or.status();
            }
            // A genuine planner error under fault injection is handled by
            // the same degradation path: record, fall back, keep serving.
            result.fault_events.push_back({i, simdb::FaultType::kPlannerError,
                                           fallback_action,
                                           round.failed_attempts, 0.0});
            controller->InstallFallback();
            break;
          }
          RobustAutoScalingManager::Plan plan = std::move(plan_or).value();
          if (round.failed_attempts > 0) {
            ++result.forecaster_faults;
            ++result.retried_plans;
            result.fault_events.push_back(
                {i, round.fault, simdb::FaultAction::kRetrySucceeded,
                 round.failed_attempts, 0.0});
          }
          for (double u : plan.uncertainty) {
            uncertainty_sum += u;
            ++uncertainty_n;
          }
          RPAS_RETURN_IF_ERROR(controller->InstallFresh(
              std::move(plan.nodes), std::move(plan.forecast)));
          break;
        }
      }
      const double plan_ms = plan_watch.ElapsedMillis();
      result.round_plan_millis.push_back(plan_ms);
      result.total_plan_millis += plan_ms;
      metrics->GetHistogram("online.plan_ms", {}, /*deterministic=*/false)
          ->Observe(plan_ms);
    }
    result.steps.push_back(controller->Step(i).stats);
  }

  controller->Finish();
  result.mean_uncertainty =
      uncertainty_n > 0 ? uncertainty_sum / static_cast<double>(uncertainty_n)
                        : 0.0;

  // Registry counters are bulk-incremented from the finished result, so
  // they agree *exactly* with the OnlineLoopResult fields by construction
  // (see tests/obs_test.cc) and stay deterministic across thread counts.
  const auto count = [metrics](const char* name, uint64_t value) {
    metrics->GetCounter(name)->Increment(static_cast<int64_t>(value));
  };
  count("online.steps", num_steps);
  count("online.plans_made", result.plans_made);
  count("online.forecaster_faults", result.forecaster_faults);
  count("online.retried_plans", result.retried_plans);
  count("online.fallback_plans", result.fallback_plans);
  count("online.stale_plans", result.stale_plans);
  count("online.faulted_steps", result.faulted_steps);
  count("online.degraded_steps", result.degraded_steps);
  count("online.fault_events", result.fault_events.size());
  if (streaming) {
    count("stream.ingested", result.points_ingested);
    count("stream.dropped", result.points_dropped);
    count("stream.pending", result.points_pending);
    count("stream.refresh.recursive_updates", result.refresh.recursive_updates);
    count("stream.refresh.fine_tunes", result.refresh.fine_tunes);
    count("stream.refresh.gradient_steps", result.refresh.gradient_steps);
    count("stream.refresh.resyncs", result.refresh.resyncs);
    count("stream.refresh.fallback_retrains", result.refresh.full_retrains);
    count("online.ingest_stall_steps", result.ingest_stall_steps);
    count("online.ingest_bursts", result.ingest_bursts);
  }
  if (selecting) {
    const select::SelectorStats& sel = result.selection.selector;
    count("select.rounds", sel.rounds);
    count("select.switches", sel.switches);
    count("select.promotions", sel.promotions);
    count("select.probe_demotions", sel.probe_demotions);
    count("select.fault_demotions", sel.fault_demotions);
    count("select.drift_demotions", sel.drift_demotions);
    const select::PreScalerStats& pre = result.selection.prescaler;
    count("select.prescale.spikes_detected", pre.spikes_detected);
    count("select.prescale.activations", pre.activations);
    count("select.prescale.rollbacks", pre.rollbacks);
    count("select.prescale.timeout_rollbacks", pre.timeout_rollbacks);
    count("select.prescale.floor_raised_steps", pre.floor_raised_steps);
  }
  return result;
}

std::vector<obs::ScalingDecision> CollectDecisions(
    const OnlineLoopResult& result, const std::string& run) {
  std::unordered_set<size_t> faulted_steps;
  for (const simdb::FaultEvent& event : result.fault_events) {
    faulted_steps.insert(event.step);
  }
  std::vector<obs::ScalingDecision> decisions;
  decisions.reserve(result.steps.size());
  for (const simdb::StepStats& stats : result.steps) {
    decisions.push_back(MakeScalingDecision(
        stats, run, faulted_steps.count(stats.step) > 0));
  }
  return decisions;
}

}  // namespace rpas::core
