// Fleet planning benchmark executable.
//
//   perfbench --workload <fleet-cold|fleet-warm|loop-stream> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints a host block line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer breakdown. Output-check
// failures go to stderr. Run it through perfbench/run.py, which builds it
// and pins RPAS_NUM_THREADS=1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/strings.h"
#include "host.h"
#include "reference.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.workdir = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) {
    return Usage("flags take one value each");
  }
  if (!have_workload || !(config.seconds > 0.0) ||
      !std::isfinite(config.seconds)) {
    return Usage("--workload and a positive --seconds are required");
  }
  // Every workload is single-threaded: about one effective core is what a
  // process gets on the hosts this was built for (see the host block).
  rpas::SetRpasThreads(1);

  const perfbench::HostInfo host = perfbench::ProbeHost();
  perfbench::ReferenceMs();  // first run allocates its buffer; not timed
  auto report = perfbench::RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& problem : report->problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  // The host block and the unscaled wall-clock figures share one line.
  std::printf(
      "{\"host\": %s, \"wall_clock\": {\"tenant_rounds_per_s\": %.17g, "
      "\"setup_s\": %.17g, \"reference_ms\": %.17g, "
      "\"reference_host_ms\": %.17g}}\n",
      perfbench::HostJson(host).c_str(), report->wall_tenant_rounds_per_s,
      report->wall_setup_s, report->reference_ms, perfbench::kReferenceHostMs);
  std::string metrics;
  for (const perfbench::Metric& m : report->metrics) {
    metrics += rpas::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                               metrics.empty() ? "" : ", ", m.name.c_str(),
                               m.value, m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report->correct ? "true" : "false",
      static_cast<unsigned long long>(report->attempted),
      static_cast<unsigned long long>(report->failed), metrics.c_str());
  return 0;
}
