/// perfbench_layers: one workload of the layered benchmark.
///
///   perfbench_layers --workload <fusedmm-er|fusedmm-rmat|als-serve>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--r <width>] [--trace-out <file.json>]
///
/// Prints every metric with its unit, then, as the last line, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
/// when any output failed its check, 2 on bad arguments or errors.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_layers: %s\nusage: perfbench_layers --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--r <width>] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

} // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds. Under glibc's defaults every call's
  // multi-megabyte messages and outputs are mmapped or trimmed back to
  // the OS on free, so each call re-faults them; the page faults and TLB
  // shootdowns contend across the four rank threads and make per-call
  // latency bimodal (fusedmm-er at 16384²: modes near 47 and 62 ms),
  // which moved the median by 20% between identical runs. With fixed
  // thresholds freed buffers are reused and the median repeats to a few
  // percent.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // One arena. SimWorld spawns fresh rank threads on every call and each
  // takes whichever arena is free next, so a call's buffers need not come
  // from the arena the previous call freed them into. With one arena the
  // freed chunks are always reused (fusedmm-rmat: peak RSS 358 -> 277 MB,
  // run-to-run median spread no wider).
  mallopt(M_ARENA_MAX, 1);

  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (!parse_number(value, number) || number < 0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      opts.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      opts.seconds = number;
    } else if (flag == "--trace") {
      opts.trace = number != 0;
    } else if (flag == "--r") {
      opts.r = static_cast<dsk::Index>(number);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Result res;
  try {
    res = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 2;
  }

  for (const auto& m : res.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return res.correct ? 0 : 1;
}
