#include "serve/batching.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/parallel.h"

namespace rpas::serve {

BatchEngine::BatchEngine(ModelRegistry* registry, Options options)
    : registry_(registry), options_(options) {
  // Handles resolve once here; Execute() never does a name lookup. The
  // instruments fire concurrently from every shard's engine in the fleet's
  // parallel phase, so they are striped (merged exactly on read).
  obs::MetricsRegistry* metrics = obs::ResolveRegistry(options_.metrics);
  requests_counter_ = metrics->GetStripedCounter("serve.engine.requests");
  batches_counter_ = metrics->GetStripedCounter("serve.engine.batches");
  errors_counter_ =
      metrics->GetStripedCounter("serve.engine.request_errors");
  batch_size_hist_ =
      metrics->GetStripedHistogram("serve.engine.batch_size");
}

std::vector<ForecastResponse> BatchEngine::Execute(
    const std::vector<ForecastRequest>& requests) {
  std::vector<ForecastResponse> responses(requests.size());
  if (requests.empty()) {
    return responses;
  }
  requests_counter_->Increment(static_cast<int64_t>(requests.size()));
  if (options_.batch_across_tenants) {
    ExecuteBatched(requests, &responses);
  } else {
    ExecuteUnbatched(requests, &responses);
  }
  for (const ForecastResponse& response : responses) {
    if (!response.ok()) {
      errors_counter_->Increment();
    }
  }
  return responses;
}

void BatchEngine::ExecuteBatched(const std::vector<ForecastRequest>& requests,
                                 std::vector<ForecastResponse>* responses) {
  // Stable grouping: requests keep their slate order inside each group, and
  // groups start in first-appearance order.
  std::vector<std::pair<ModelId, std::vector<size_t>>> groups;
  std::map<ModelId, size_t> group_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto [it, inserted] = group_of.emplace(requests[i].model, groups.size());
    if (inserted) {
      groups.emplace_back(requests[i].model, std::vector<size_t>{});
    }
    groups[it->second].second.push_back(i);
  }
  // Residency-first: serve the warm versions before loading any cold one,
  // so every LRU victim of this slate's loads is a version the slate has
  // already served. A slate that sweeps the same N versions every round
  // then loads N - K of them, not all N. The probe is only a hint (another
  // shard may change residency before Acquire); responses are a pure
  // function of (version, input, seed), so the order never changes them.
  std::stable_partition(groups.begin(), groups.end(), [&](const auto& group) {
    return registry_->IsResident(group.first);
  });

  for (const auto& [model_id, indices] : groups) {
    batches_counter_->Increment();
    batch_size_hist_->Observe(static_cast<double>(indices.size()));

    auto acquired = registry_->Acquire(model_id);
    if (!acquired.ok()) {
      for (size_t i : indices) {
        (*responses)[i].status = acquired.status();
      }
      continue;
    }
    const std::shared_ptr<const forecast::Forecaster>& model = *acquired;

    std::vector<forecast::ForecastInput> inputs;
    std::vector<uint64_t> seeds;
    inputs.reserve(indices.size());
    seeds.reserve(indices.size());
    for (size_t i : indices) {
      inputs.push_back(requests[i].input);
      seeds.push_back(requests[i].seed);
    }

    if (model->SupportsBatchedInference()) {
      auto batch = model->PredictBatch(inputs, seeds);
      if (batch.ok()) {
        for (size_t k = 0; k < indices.size(); ++k) {
          (*responses)[indices[k]].forecast = std::move((*batch)[k]);
        }
        continue;
      }
      // A whole-batch failure (e.g. one malformed context) falls through to
      // per-request serving so only the offending requests error.
    }
    // Per-request path for models without a stacked forward (or after a
    // batch failure). Responses are written to disjoint slots and
    // PredictSeeded is thread-safe on a fitted model, so the fan-out keeps
    // the determinism contract.
    ParallelFor(0, indices.size(), 1, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) {
        auto result = model->PredictSeeded(inputs[k], seeds[k]);
        if (result.ok()) {
          (*responses)[indices[k]].forecast = std::move(*result);
        } else {
          (*responses)[indices[k]].status = result.status();
        }
      }
    });
  }
}

void BatchEngine::ExecuteUnbatched(
    const std::vector<ForecastRequest>& requests,
    std::vector<ForecastResponse>* responses) {
  for (size_t i = 0; i < requests.size(); ++i) {
    batches_counter_->Increment();
    batch_size_hist_->Observe(1.0);
    auto acquired = registry_->Acquire(requests[i].model);
    if (!acquired.ok()) {
      (*responses)[i].status = acquired.status();
      continue;
    }
    auto result = (*acquired)->PredictSeeded(requests[i].input,
                                             requests[i].seed);
    if (result.ok()) {
      (*responses)[i].forecast = std::move(*result);
    } else {
      (*responses)[i].status = result.status();
    }
  }
}

}  // namespace rpas::serve
