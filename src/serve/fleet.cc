#include "serve/fleet.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/scaling_config.h"
#include "core/strategies.h"
#include "core/tenant_controller.h"

namespace rpas::serve {
namespace {

// Seed-stream salts for the independent per-tenant randomness sources.
constexpr uint64_t kTraceStream = 0x51AE;
constexpr uint64_t kClusterStream = 0xC105;
constexpr uint64_t kFaultStream = 0xFA17;
constexpr uint64_t kRequestStream = 0x5EED;

/// Everything the fleet keeps per tenant beside its controller.
struct TenantState {
  ModelId model;
  size_t context_length = 0;
  TenantScenario scenario;
  /// kIncremental only: the private fitted forecaster the controller's
  /// refresher keeps current.
  std::unique_ptr<forecast::Forecaster> refresh_model;
  /// The controller's account of the tenant's run (no per-step records).
  core::OnlineLoopResult run;
  /// Declared after the scenario, model and run it refers to, so it is
  /// destroyed before them.
  std::unique_ptr<core::TenantController> controller;
  // Model staleness, tracked per round.
  uint64_t model_staleness_sum = 0;
  uint64_t model_staleness_max = 0;
  TenantSummary summary;
};

/// One serving shard: its own inference engine and admission controller.
/// Every shard's engine serves from the fleet's one model registry, whose
/// warm Acquire() is a lock-free snapshot read. Tenant state itself is
/// partitioned by the shard map, so everything else a shard touches during
/// a round is disjoint from every other shard — rounds fan shards across
/// the thread pool with no locking beyond the metrics sink's atomics.
struct Shard {
  std::unique_ptr<AdmissionController> admission;
  std::unique_ptr<BatchEngine> engine;
};

}  // namespace

size_t ShardOfTenant(uint64_t tenant_id, size_t num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  // SplitMix64 finalizer: avalanches the id so consecutive tenants spread
  // across shards instead of striping, and the assignment depends on
  // nothing but (id, num_shards).
  uint64_t x = tenant_id + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

TenantScenario MakeTenantScenario(const FleetOptions& options,
                                  uint64_t tenant_id) {
  RPAS_CHECK(options.history_steps > 0)
      << "MakeTenantScenario needs history_steps > 0";
  TenantScenario scenario;
  trace::SyntheticTraceGenerator generator(
      options.profile, DeriveSeed(options.seed, kTraceStream + tenant_id));
  scenario.series =
      generator.GenerateCpu(options.history_steps + options.num_steps);
  const std::vector<double>& values = scenario.series.values;
  const double mean_history =
      std::accumulate(values.begin(),
                      values.begin() + static_cast<long>(options.history_steps),
                      0.0) /
      static_cast<double>(options.history_steps);
  scenario.config.theta =
      std::max(mean_history / options.theta_divisor, 1e-9);
  scenario.cluster.node_capacity = scenario.config.theta;
  scenario.cluster.seed = DeriveSeed(options.seed, kClusterStream + tenant_id);
  scenario.cluster.metrics = options.metrics;
  scenario.cluster.initial_nodes = core::RequiredNodes(
      values[options.history_steps - 1], scenario.config);
  scenario.faults = options.faults;
  scenario.faults.seed =
      DeriveSeed(options.faults.seed, kFaultStream + tenant_id);
  return scenario;
}

Result<FleetResult> RunFleet(ModelRegistry* registry,
                             const std::vector<ModelId>& models,
                             const FleetOptions& options) {
  if (registry == nullptr) {
    return Status::InvalidArgument("fleet needs a model registry");
  }
  if (models.empty()) {
    return Status::InvalidArgument("fleet needs at least one model version");
  }
  if (options.num_tenants == 0 || options.num_steps == 0) {
    return Status::InvalidArgument("fleet needs tenants and steps");
  }
  if (options.replan_every == 0) {
    return Status::InvalidArgument("replan_every must be at least 1");
  }
  if (options.theta_divisor <= 0.0) {
    return Status::InvalidArgument("theta_divisor must be positive");
  }
  const bool selecting = options.selection.enabled;
  const bool incremental =
      options.refresh_mode == core::RefreshMode::kIncremental;
  if (selecting && options.selection.ladder.empty()) {
    return Status::InvalidArgument(
        "fleet selection needs a non-empty model ladder");
  }
  if (selecting && incremental) {
    return Status::InvalidArgument(
        "fleet selection cannot be combined with incremental refresh: "
        "the refresher tracks one model, the ladder switches models");
  }
  if (incremental && options.refresh_model_factory == nullptr) {
    return Status::InvalidArgument(
        "incremental refresh mode needs a refresh_model_factory");
  }

  // Warm-up pass: verify every referenced version loads and note its
  // context length (the request window size). One Acquire per distinct
  // model; these land in the cache stats as the setup cost of the fleet.
  const auto context_lengths =
      [&](const std::vector<ModelId>& ids) -> Result<std::vector<size_t>> {
    std::vector<size_t> context;
    for (const ModelId& id : ids) {
      RPAS_ASSIGN_OR_RETURN(std::shared_ptr<const forecast::Forecaster> fc,
                            registry->Acquire(id));
      context.push_back(fc->ContextLength());
      if (context.back() > options.history_steps) {
        return Status::InvalidArgument(StrFormat(
            "%s: context length %zu exceeds history_steps %zu",
            id.ToString().c_str(), context.back(), options.history_steps));
      }
    }
    return context;
  };
  RPAS_ASSIGN_OR_RETURN(const std::vector<size_t> model_context,
                        context_lengths(models));
  const std::vector<ModelId>& ladder = options.selection.ladder;
  RPAS_ASSIGN_OR_RETURN(const std::vector<size_t> ladder_context,
                        context_lengths(ladder));

  // Shard topology: stable-hash tenant assignment, per-shard serving tier.
  const size_t num_shards = std::max<size_t>(options.num_shards, 1);
  std::vector<size_t> shard_of(options.num_tenants);
  std::vector<std::vector<size_t>> shard_tenants(num_shards);
  for (size_t t = 0; t < options.num_tenants; ++t) {
    shard_of[t] = ShardOfTenant(t, num_shards);
    shard_tenants[shard_of[t]].push_back(t);
  }

  AdmissionController::Options admission_options = options.admission;
  admission_options.metrics = options.metrics;
  BatchEngine::Options engine_options;
  engine_options.batch_across_tenants = options.batched;
  engine_options.metrics = options.metrics;

  std::vector<Shard> shards(num_shards);
  for (Shard& shard : shards) {
    // Every shard's controller is sized to the whole fleet: token buckets
    // are indexed by global tenant id, and the deadline-shed rotation
    // period must be the fleet-wide tenant count on every shard.
    shard.admission = std::make_unique<AdmissionController>(
        admission_options, options.num_tenants);
    shard.engine = std::make_unique<BatchEngine>(registry, engine_options);
  }

  // Per-tenant setup: a scenario (workload, cluster, fault schedule) whose
  // seeds derive from the *global* tenant id, so the tenant's trajectory is
  // independent of the shard topology, and a controller that carries the
  // tenant across rounds. Setup is embarrassingly parallel across tenants.
  std::vector<TenantState> tenants(options.num_tenants);
  std::vector<Status> setup_status(options.num_tenants);
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options.metrics);
  // Resolve the simdb.* instrument bundle once for the whole fleet: the
  // parallel setup below constructs one cluster per tenant, and without a
  // shared bundle every construction would take the metrics registry's
  // name-lookup mutex seven times — a cross-tenant serialization point.
  const simdb::Cluster::MetricHandles cluster_handles =
      simdb::Cluster::MetricHandles::Resolve(metrics);
  // Observed once per tenant step inside the parallel shard phase —
  // striped, so concurrent shards write per-thread-slot cache lines
  // instead of CAS-contending on one histogram (deterministic export is
  // unchanged: integer bucket counts merge exactly).
  obs::Histogram* staleness_hist =
      metrics->GetStripedHistogram("serve.stream.staleness_steps");
  ParallelFor(0, options.num_tenants, 1, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      TenantState& tenant = tenants[t];
      tenant.summary.tenant_id = t;
      tenant.model = models[t % models.size()];
      tenant.context_length = model_context[t % models.size()];
      tenant.scenario = MakeTenantScenario(options, t);

      core::TenantController::Options controller;
      controller.config = tenant.scenario.config;
      controller.degradation = options.degradation;
      controller.cluster = tenant.scenario.cluster;
      controller.cluster.handles = &cluster_handles;
      controller.faults = tenant.scenario.faults;
      controller.ring_capacity = options.stream_ring_capacity > 0
                                     ? options.stream_ring_capacity
                                     : 2 * options.replan_every;
      controller.staleness_hist = staleness_hist;
      if (selecting) {
        controller.ladder_size = ladder.size();
        controller.classifier = options.selection.classifier;
        controller.selector = options.selection.selector;
        controller.prescale = options.selection.prescale;
        controller.prescaler = options.selection.prescaler;
      }
      if (incremental) {
        // Private per-tenant forecaster, fitted on the tenant's own
        // history — the state the refresher keeps current round by round.
        tenant.refresh_model = options.refresh_model_factory(tenant.model);
        if (tenant.refresh_model == nullptr) {
          setup_status[t] =
              Status::InvalidArgument("refresh_model_factory returned null");
          continue;
        }
        Status fitted = tenant.refresh_model->Fit(
            tenant.scenario.series.Slice(0, options.history_steps));
        if (!fitted.ok()) {
          setup_status[t] = std::move(fitted);
          continue;
        }
        controller.refresh_target = tenant.refresh_model.get();
        controller.refresher = options.refresher;
      }
      auto created = core::TenantController::Create(
          tenant.scenario.series, options.history_steps,
          std::move(controller), &tenant.run);
      if (!created.ok()) {
        setup_status[t] = created.status();
        continue;
      }
      tenant.controller = std::move(created).value();
      tenant.summary.model = tenant.model;
    }
  });
  for (Status& status : setup_status) {
    if (!status.ok()) {
      return std::move(status);
    }
  }

  const core::RobustQuantileAllocator allocator(options.tau);

  FleetResult result;
  result.tenants.resize(options.num_tenants);

  // Per-round scratch, hoisted so round iterations recycle capacity.
  std::vector<core::RoundPlan> disposition;
  std::vector<std::vector<obs::ScalingDecision>> round_decisions(
      options.collect_decisions ? options.num_tenants : 0);

  for (size_t step = 0; step < options.num_steps;
       step += options.replan_every) {
    const size_t round = step / options.replan_every;
    ++result.rounds;
    for (Shard& shard : shards) {
      shard.admission->BeginRound();
    }

    // Phase 1: open each tenant's round. Injected forecaster faults decide
    // first — a tenant whose forecaster is down does not compete for the
    // round's inference budget — and the selector picks the round's model
    // (and with it the request's context length). Shards fan out.
    disposition.assign(options.num_tenants, core::RoundPlan::kFresh);
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        for (size_t t : shard_tenants[s]) {
          TenantState& tenant = tenants[t];
          disposition[t] = tenant.controller->BeginRound(step).plan;
          if (disposition[t] == core::RoundPlan::kFallback) {
            ++tenant.summary.fault_rounds;
          }
          if (selecting) {
            tenant.model = ladder[tenant.controller->tier()];
            tenant.context_length = ladder_context[tenant.controller->tier()];
          }
        }
      }
    });

    // The global requesting list, ascending by tenant id — the exact order
    // the unsharded fleet submits, which the deadline shed ranks against.
    std::vector<uint64_t> requesting;
    for (size_t t = 0; t < options.num_tenants; ++t) {
      if (disposition[t] == core::RoundPlan::kFresh) {
        requesting.push_back(t);
      }
    }
    result.requests_submitted += requesting.size();

    // Phase 2: admission. Token buckets are per-tenant, so each shard
    // screens and charges its own tenants on its own controller; the
    // deadline shed runs once, globally, over the merged candidate list —
    // that split is what keeps S-shard verdicts bit-identical to one
    // controller seeing the whole fleet.
    std::vector<std::vector<uint64_t>> sub_tenants(num_shards);
    std::vector<std::vector<size_t>> sub_to_global(num_shards);
    std::vector<size_t> sub_index(requesting.size(), 0);
    for (size_t i = 0; i < requesting.size(); ++i) {
      const size_t s = shard_of[requesting[i]];
      sub_index[i] = sub_tenants[s].size();
      sub_tenants[s].push_back(requesting[i]);
      sub_to_global[s].push_back(i);
    }

    std::vector<AdmissionVerdict> verdicts(requesting.size(),
                                           AdmissionVerdict::kThrottled);
    std::vector<std::vector<AdmissionVerdict>> sub_verdicts(num_shards);
    std::vector<std::vector<size_t>> sub_candidates(num_shards);
    std::vector<size_t> global_candidates;
    for (size_t s = 0; s < num_shards; ++s) {
      shards[s].admission->TokenScreen(sub_tenants[s], &sub_verdicts[s],
                                       &sub_candidates[s]);
      for (size_t c : sub_candidates[s]) {
        global_candidates.push_back(sub_to_global[s][c]);
      }
    }
    // Ascending entry order — what one controller screening the merged
    // list would have produced.
    std::sort(global_candidates.begin(), global_candidates.end());
    AdmissionController::SelectWithinBudget(
        shards[0].admission->round(), options.num_tenants,
        admission_options.round_budget, requesting, &global_candidates,
        &verdicts);
    // Push the shed marks down to the shard-local verdict slates, commit
    // each shard (charges buckets, counts metrics), and lift the admitted
    // marks back up.
    std::vector<std::vector<size_t>> sub_survivors(num_shards);
    for (size_t i : global_candidates) {
      sub_survivors[shard_of[requesting[i]]].push_back(sub_index[i]);
    }
    for (size_t i = 0; i < requesting.size(); ++i) {
      sub_verdicts[shard_of[requesting[i]]][sub_index[i]] = verdicts[i];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      shards[s].admission->Commit(sub_tenants[s], sub_survivors[s],
                                  &sub_verdicts[s]);
    }
    for (size_t i = 0; i < requesting.size(); ++i) {
      verdicts[i] = sub_verdicts[shard_of[requesting[i]]][sub_index[i]];
    }

    // Throttled and shed tenants degrade to the reactive fallback — their
    // round is served, just not with a fresh forecast.
    std::vector<std::vector<size_t>> shard_admitted(num_shards);
    for (size_t i = 0; i < requesting.size(); ++i) {
      const size_t t = requesting[i];
      TenantState& tenant = tenants[t];
      switch (verdicts[i]) {
        case AdmissionVerdict::kAdmitted:
          ++result.requests_admitted;
          shard_admitted[shard_of[t]].push_back(t);
          break;
        case AdmissionVerdict::kThrottled:
          ++result.requests_throttled;
          ++tenant.summary.throttled_rounds;
          disposition[t] = core::RoundPlan::kFallback;
          break;
        case AdmissionVerdict::kDeadlineShed:
          ++result.requests_shed;
          ++tenant.summary.shed_rounds;
          disposition[t] = core::RoundPlan::kFallback;
          break;
      }
    }

    // Phases 3+4, fused per shard and fanned across the pool. ParallelFor
    // claims shard indices dynamically, so a thread that finishes a cheap
    // shard steals the next unstarted one. Everything inside is disjoint
    // per shard: requests, engine, tenant state, decision buffers.
    const size_t round_end =
        std::min(step + options.replan_every, options.num_steps);
    ParallelFor(0, num_shards, 1, [&](size_t s0, size_t s1) {
      for (size_t s = s0; s < s1; ++s) {
        // Incremental refresh: fold the round's ingested points into each
        // tenant's private forecaster *before* serving, so admitted
        // requests run against a model that has seen everything realized
        // so far (model staleness 0). A refresh error degrades the tenant
        // to the reactive fallback for the round — never the whole fleet.
        for (size_t t : shard_tenants[s]) {
          TenantState& tenant = tenants[t];
          uint64_t model_staleness = static_cast<uint64_t>(step);
          if (incremental) {
            if (tenant.controller->Ingest().ok()) {
              model_staleness = 0;
            } else if (disposition[t] == core::RoundPlan::kFresh) {
              ++tenant.summary.error_rounds;
              disposition[t] = core::RoundPlan::kFallback;
            }
          }
          tenant.model_staleness_sum += model_staleness;
          tenant.model_staleness_max =
              std::max(tenant.model_staleness_max, model_staleness);
        }

        // Phase 3: serve the admitted requests — through the shard's
        // engine in kBatch mode, or directly from each tenant's refreshed
        // private forecaster in kIncremental mode (per-tenant state cannot
        // be cross-tenant batched; the request seed derivation is byte-for
        // -byte the same). Any per-request error degrades that tenant to
        // the fallback — never the whole round.
        std::vector<ForecastRequest> requests;
        std::vector<size_t> request_tenant;
        requests.reserve(shard_admitted[s].size());
        request_tenant.reserve(shard_admitted[s].size());
        for (size_t t : shard_admitted[s]) {
          TenantState& tenant = tenants[t];
          if (disposition[t] != core::RoundPlan::kFresh) {
            continue;  // refresh error already degraded this round
          }
          const std::vector<double>& values = tenant.scenario.series.values;
          const size_t end = tenant.controller->ObservedEnd();
          ForecastRequest request;
          request.tenant_id = t;
          request.model = tenant.model;
          request.input.context.assign(
              values.begin() + static_cast<long>(end - tenant.context_length),
              values.begin() + static_cast<long>(end));
          request.input.start_index = end - tenant.context_length;
          request.input.step_minutes = tenant.scenario.series.step_minutes;
          request.seed =
              DeriveSeed(DeriveSeed(options.seed, kRequestStream + t), round);
          requests.push_back(std::move(request));
          request_tenant.push_back(t);
        }
        std::vector<ForecastResponse> responses;
        if (incremental) {
          responses.resize(requests.size());
          for (size_t k = 0; k < requests.size(); ++k) {
            TenantState& tenant = tenants[request_tenant[k]];
            auto forecast_or = tenant.refresh_model->PredictSeeded(
                requests[k].input, requests[k].seed);
            if (forecast_or.ok()) {
              responses[k].forecast = std::move(*forecast_or);
            } else {
              responses[k].status = forecast_or.status();
            }
          }
        } else {
          responses = shards[s].engine->Execute(requests);
        }
        for (size_t k = 0; k < responses.size(); ++k) {
          const size_t t = request_tenant[k];
          TenantState& tenant = tenants[t];
          Status installed = responses[k].status;
          if (installed.ok()) {
            auto plan = allocator.Allocate(responses[k].forecast,
                                           tenant.scenario.config);
            installed = plan.ok() ? tenant.controller->InstallFresh(
                                        std::move(*plan),
                                        std::move(responses[k].forecast))
                                  : plan.status();
          }
          if (!installed.ok()) {
            ++tenant.summary.error_rounds;
            disposition[t] = core::RoundPlan::kFallback;
          }
        }
        for (size_t t : shard_tenants[s]) {
          if (disposition[t] == core::RoundPlan::kStale) {
            tenants[t].controller->InstallStale();
          } else if (disposition[t] == core::RoundPlan::kFallback) {
            tenants[t].controller->InstallFallback();
          }
        }

        // Phase 4: drive the shard's clusters to the next planning round.
        // A plan shorter than the round holds its last step.
        for (size_t t : shard_tenants[s]) {
          core::TenantController& controller = *tenants[t].controller;
          const std::string run =
              options.collect_decisions ? StrFormat("tenant%zu", t) : "";
          for (size_t st = step; st < round_end; ++st) {
            const core::TenantController::StepOutcome out =
                controller.Step(st);
            if (options.collect_decisions) {
              round_decisions[t].push_back(core::MakeScalingDecision(
                  out.stats, run, out.faults.Any()));
            }
          }
          // Drain the round's ingested observations through the cursor —
          // the same "new since last seq" contract the streaming online
          // loop consumes; capacity >= 2 * replan_every makes this
          // drop-free. In incremental mode the refresher drains instead,
          // at the top of the next round, so the points feed the model.
          // Without a refresher the drain cannot fail.
          if (!incremental) {
            (void)controller.Ingest();
          }
        }
      }
    });

    // Merge the round's decision records in the legacy order (tenant
    // ascending, step ascending) regardless of which thread ran which
    // shard, keeping the export stream deterministic.
    if (options.collect_decisions) {
      for (size_t t = 0; t < options.num_tenants; ++t) {
        for (obs::ScalingDecision& decision : round_decisions[t]) {
          result.decisions.push_back(std::move(decision));
        }
        round_decisions[t].clear();
      }
    }
  }

  // Final accounting.
  for (size_t t = 0; t < options.num_tenants; ++t) {
    TenantState& tenant = tenants[t];
    tenant.controller->Finish();
    const core::OnlineLoopResult& run = tenant.run;
    TenantSummary& summary = tenant.summary;
    summary.under_provision_rate = run.under_provision_rate;
    summary.over_provision_rate = run.over_provision_rate;
    summary.mean_utilization = run.mean_utilization;
    summary.slo_violation_rate = run.slo_violation_rate;
    summary.rounds = run.plans_made;
    summary.stale_rounds = run.stale_plans;
    summary.fallback_rounds = run.fallback_plans;
    summary.fresh_rounds =
        summary.rounds - summary.stale_rounds - summary.fallback_rounds;
    summary.faulted_steps = run.faulted_steps;
    summary.stream_points = tenant.controller->points_drained();
    summary.stream_dropped = run.points_dropped;
    summary.mean_staleness_steps = run.mean_staleness_points;
    summary.max_staleness_steps = run.max_staleness_points;
    summary.mean_model_staleness_steps =
        static_cast<double>(tenant.model_staleness_sum) /
        static_cast<double>(result.rounds);
    summary.max_model_staleness_steps = tenant.model_staleness_max;
    if (selecting) {
      summary.final_tier = run.selection.final_tier;
      summary.pattern = run.selection.pattern;
      summary.selector = run.selection.selector;
      summary.prescale = run.selection.prescaler;
      summary.model = ladder[summary.final_tier];
      result.tier_switches += summary.selector.switches;
      result.tier_promotions += summary.selector.promotions;
      result.tier_demotions += summary.selector.probe_demotions +
                               summary.selector.fault_demotions +
                               summary.selector.drift_demotions;
      result.prescale_activations += summary.prescale.activations;
      result.prescale_rollbacks += summary.prescale.rollbacks;
      result.prescale_floor_raised_steps +=
          summary.prescale.floor_raised_steps;
    }
    const stream::RefreshStats& rs = run.refresh;
    result.refresh.refreshes += rs.refreshes;
    result.refresh.points_consumed += rs.points_consumed;
    result.refresh.recursive_updates += rs.recursive_updates;
    result.refresh.fine_tunes += rs.fine_tunes;
    result.refresh.gradient_steps += rs.gradient_steps;
    result.refresh.resyncs += rs.resyncs;
    result.refresh.full_retrains += rs.full_retrains;
    result.mean_model_staleness_steps += summary.mean_model_staleness_steps;
    result.max_model_staleness_steps = std::max(
        result.max_model_staleness_steps, summary.max_model_staleness_steps);
    result.tenants[t] = summary;
    result.mean_under_provision_rate += summary.under_provision_rate;
    result.mean_over_provision_rate += summary.over_provision_rate;
    result.mean_utilization += summary.mean_utilization;
    result.mean_slo_violation_rate += summary.slo_violation_rate;
    result.stream_points += summary.stream_points;
    result.stream_dropped += summary.stream_dropped;
    result.mean_staleness_steps += summary.mean_staleness_steps;
    result.max_staleness_steps =
        std::max(result.max_staleness_steps, summary.max_staleness_steps);
  }
  const double n = static_cast<double>(options.num_tenants);
  result.mean_under_provision_rate /= n;
  result.mean_over_provision_rate /= n;
  result.mean_utilization /= n;
  result.mean_slo_violation_rate /= n;
  result.mean_staleness_steps /= n;
  result.mean_model_staleness_steps /= n;
  const auto count = [metrics](const char* name, uint64_t value) {
    metrics->GetCounter(name)->Increment(static_cast<int64_t>(value));
  };
  if (selecting) {
    // serve.select.* counters are bulk-incremented from the finished
    // result, so registry values agree exactly with the result fields.
    count("serve.select.switches", result.tier_switches);
    count("serve.select.promotions", result.tier_promotions);
    count("serve.select.demotions", result.tier_demotions);
    count("serve.select.prescale.activations", result.prescale_activations);
    count("serve.select.prescale.rollbacks", result.prescale_rollbacks);
    count("serve.select.prescale.floor_raised_steps",
          result.prescale_floor_raised_steps);
  }
  if (incremental) {
    count("serve.refresh.rounds", result.refresh.refreshes);
    count("serve.refresh.points_consumed", result.refresh.points_consumed);
    count("serve.refresh.resyncs", result.refresh.resyncs);
    count("serve.refresh.full_retrains", result.refresh.full_retrains);
  }
  result.cache = registry->GetCacheStats();
  return result;
}

}  // namespace rpas::serve
