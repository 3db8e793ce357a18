// Host block printed with every benchmark result, so that figures from
// different machines or builds are never compared without notice.

#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <string>

namespace perfbench {

struct HostInfo {
  int cpus_reported = 0;        ///< CPUs in this process's affinity mask
  double effective_parallelism = 0.0;  ///< spin-probe speedup, see below
  std::string simd_level;       ///< level the tensor kernels dispatch to
  std::string build_type;
  std::string compiler;
};

/// Measures the host. The spin probe runs the same total number of
/// dependent integer operations once on one thread and once split over
/// `cpus_reported` threads; the ratio of the two wall times is the
/// parallelism a process actually gets (1.0 on a one-core share).
HostInfo ProbeHost();

/// The host block as a one-line JSON object.
std::string HostJson(const HostInfo& host);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
