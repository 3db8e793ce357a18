#include "solver/autoscaling.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace rpas::solver {

double AutoScalingProblem::ThresholdAt(size_t t) const {
  RPAS_CHECK(!thresholds.empty());
  return thresholds.size() == 1 ? thresholds[0] : thresholds[t];
}

namespace {
Status ValidateProblem(const AutoScalingProblem& problem) {
  if (problem.workloads.empty()) {
    return Status::InvalidArgument("auto-scaling problem has no steps");
  }
  if (problem.thresholds.size() != 1 &&
      problem.thresholds.size() != problem.workloads.size()) {
    return Status::InvalidArgument(
        "thresholds must have size 1 or match workloads");
  }
  for (size_t t = 0; t < problem.workloads.size(); ++t) {
    if (problem.ThresholdAt(t) <= 0.0) {
      return Status::InvalidArgument("thresholds must be positive");
    }
    if (!std::isfinite(problem.workloads[t])) {
      return Status::InvalidArgument("workloads must be finite");
    }
    if (problem.workloads[t] < 0.0) {
      return Status::InvalidArgument("workloads must be non-negative");
    }
  }
  if (problem.min_nodes < 0) {
    return Status::InvalidArgument("min_nodes must be >= 0");
  }
  return Status::OK();
}
}  // namespace

Result<std::vector<int>> SolveAutoScalingInteger(
    const AutoScalingProblem& problem) {
  RPAS_RETURN_IF_ERROR(ValidateProblem(problem));
  std::vector<int> allocation(problem.workloads.size());
  for (size_t t = 0; t < problem.workloads.size(); ++t) {
    const double required = problem.workloads[t] / problem.ThresholdAt(t);
    // ceil with a tolerance so w/theta == k does not round to k+1 from
    // floating-point dust.
    const double ceiled = std::ceil(required - 1e-9);
    // Casting a value outside int's range is undefined behaviour.
    if (!(ceiled <= static_cast<double>(std::numeric_limits<int>::max()))) {
      return Status::OutOfRange(StrFormat(
          "step %zu requires %g nodes, beyond the int range", t, ceiled));
    }
    int nodes = static_cast<int>(ceiled);
    nodes = std::max(nodes, problem.min_nodes);
    if (problem.max_nodes > 0 && nodes > problem.max_nodes) {
      return Status::OutOfRange(StrFormat(
          "step %zu requires %d nodes, cap is %d", t, nodes,
          problem.max_nodes));
    }
    allocation[t] = nodes;
  }
  return allocation;
}

LinearProgram BuildAutoScalingLp(const AutoScalingProblem& problem) {
  const size_t h = problem.workloads.size();
  LinearProgram lp;
  lp.objective.assign(h, 1.0);
  for (size_t t = 0; t < h; ++t) {
    // w_t / c_t <= theta_t  <=>  c_t >= w_t / theta_t.
    Constraint demand;
    demand.coeffs.assign(h, 0.0);
    demand.coeffs[t] = 1.0;
    demand.relation = Relation::kGreaterEqual;
    demand.rhs = problem.workloads[t] / problem.ThresholdAt(t);
    lp.constraints.push_back(std::move(demand));

    if (problem.min_nodes > 0) {
      Constraint floor;
      floor.coeffs.assign(h, 0.0);
      floor.coeffs[t] = 1.0;
      floor.relation = Relation::kGreaterEqual;
      floor.rhs = static_cast<double>(problem.min_nodes);
      lp.constraints.push_back(std::move(floor));
    }
    if (problem.max_nodes > 0) {
      Constraint cap;
      cap.coeffs.assign(h, 0.0);
      cap.coeffs[t] = 1.0;
      cap.relation = Relation::kLessEqual;
      cap.rhs = static_cast<double>(problem.max_nodes);
      lp.constraints.push_back(std::move(cap));
    }
  }
  return lp;
}

Result<std::vector<double>> SolveAutoScalingLp(
    const AutoScalingProblem& problem) {
  RPAS_RETURN_IF_ERROR(ValidateProblem(problem));
  RPAS_ASSIGN_OR_RETURN(LpSolution solution,
                        SolveSimplex(BuildAutoScalingLp(problem)));
  return solution.x;
}

}  // namespace rpas::solver
