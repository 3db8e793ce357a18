// The fleet planning benchmark: three single-thread workloads driven
// through the public entry points serve::RunFleet and core::RunOnlineLoop.
//
//   fleet-cold   RunFleet, 64 tenants, 12 versions (text and rpasq q8
//                checkpoints) behind a registry budget of half their bytes
//   fleet-warm   RunFleet, 64 tenants, adaptive selection over {mlp, deepar}
//                with pre-scaling, all versions warm, deadline shed, faults
//   loop-stream  RunOnlineLoop over 16 tenant traces, incremental refresh
//                (ARIMA and MLP), Algorithm 1 allocation, a small ingest
//                ring and ingest-stall faults
//
// An untraced run reports the end-to-end metrics; a traced run wraps every
// model in a TimedForecaster and reports the per-layer breakdown. See
// perfbench/README.md for the definitions.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase; a traced run splits it evenly between
  /// an untraced and a traced half.
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the checkpoints the set-up writes.
  std::string workdir;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;  ///< tenant planning rounds run
  uint64_t failed = 0;     ///< rounds that errored or failed the check
  std::vector<Metric> metrics;
  /// Output-check failures, one line each.
  std::vector<std::string> problems;
  /// Unscaled wall-clock figures behind the reference-scaled metrics, and
  /// the median reference-kernel time they were scaled with.
  double wall_tenant_rounds_per_s = 0.0;
  double wall_setup_s = 0.0;
  double reference_ms = 0.0;
};

/// Workload names RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Sets up, measures and checks one workload. Errors are reserved for
/// set-up failures and unknown names; a failed output check is reported in
/// RunReport (correct = false) instead.
rpas::Result<RunReport> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
