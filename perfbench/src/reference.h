// Host-speed reference kernel.
//
// The hosts this benchmark runs on share memory bandwidth and caches with
// other tenants, and their speed drifts by tens of percent over minutes.
// A fixed reference workload, timed next to every repetition, measures
// that drift, so throughput can be reported on a steady scale. The kernel
// lives in the benchmark's own files, not in src/, so no change to the
// program moves it.

#ifndef PERFBENCH_SRC_REFERENCE_H_
#define PERFBENCH_SRC_REFERENCE_H_

namespace perfbench {

/// Runs the reference kernel once and returns its wall time in ms (a few
/// milliseconds): 64^3 multiply-adds, streaming passes over 4 MiB, and
/// double <-> text round trips with small allocations.
double ReferenceMs();

/// Reference-kernel time on the reference host, a quiet 4-vCPU x86-64 VM
/// with AVX2 (the host the figures in perfbench/README.md come from).
/// Reported times are scaled to it: a measured duration d next to a
/// reference time r reads d * kReferenceHostMs / r.
inline constexpr double kReferenceHostMs = 4.0;

/// Median total of `runs` reference runs (steadier than one sample).
double MedianReferenceMs(int runs);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFERENCE_H_
