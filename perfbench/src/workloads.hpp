#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads and the driver that times them.
///
///  - fusedmm-er:   uniform Erdos-Renyi FusedMM on 1.5D dense shifting with
///                  local kernel fusion (compute-heavy, dense rings, no
///                  sparse-support compression, no hub rows).
///  - fusedmm-rmat: power-law R-MAT FusedMM on 2.5D sparse replicating with
///                  Auto replication/propagation (hub-row skew, column-
///                  support sendrecv and index codecs on the wire).
///  - als-serve:    a closed loop of 32 clients against an AlsServer
///                  (fixed per-request costs in apps and dist dominate).
///
/// perfbench/README.md records why each was chosen and which layers it
/// exercises and bypasses.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Dense width override (0 = the workload's own r); the sensitivity
  /// check halves fusedmm-er's width with it.
  dsk::Index r = 0;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Generate the workload's inputs from opts.seed, set up, warm up, time
/// for opts.seconds, and check every output. With opts.trace the
/// per-layer metrics are returned instead of the end-to-end ones.
Result run_workload(const Options& opts);

} // namespace perfbench
