#include "host.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

// Enough work for ~50 ms on one core: long enough to swamp thread start-up,
// short enough to leave the run's time budget alone.
constexpr uint64_t kSpinIterations = 40'000'000;

uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SecondsOf(int threads, uint64_t per_thread) {
  std::vector<uint64_t> sinks(static_cast<size_t>(threads), 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t, per_thread] {
      sinks[static_cast<size_t>(t)] =
          Spin(per_thread, static_cast<uint64_t>(t) + 1);
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  const auto end = std::chrono::steady_clock::now();
  // Keep the spin results observable so the loop is not folded away.
  volatile uint64_t sink = 0;
  for (uint64_t s : sinks) {
    sink = sink + s;
  }
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

HostInfo ProbeHost() {
  HostInfo host;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  host.cpus_reported = sched_getaffinity(0, sizeof(mask), &mask) == 0
                           ? CPU_COUNT(&mask)
                           : 1;
  const int n = std::max(host.cpus_reported, 1);
  const uint64_t per_thread = kSpinIterations / static_cast<uint64_t>(n);
  const double one = SecondsOf(1, per_thread * static_cast<uint64_t>(n));
  const double many = SecondsOf(n, per_thread);
  host.effective_parallelism = many > 0.0 ? one / many : 0.0;
  host.simd_level =
      rpas::tensor::kernels::LevelName(rpas::tensor::kernels::ActiveLevel());
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = __VERSION__;
  return host;
}

std::string HostJson(const HostInfo& host) {
  return rpas::StrFormat(
      "{\"cpus_reported\": %d, "
      "\"effective_parallelism\": %.3f, \"simd_level\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
      host.cpus_reported, host.effective_parallelism,
      host.simd_level.c_str(), host.build_type.c_str(),
      host.compiler.c_str());
}

}  // namespace perfbench
