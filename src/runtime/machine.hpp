#pragma once
/// \file machine.hpp
/// The alpha-beta-gamma machine model used to convert counted messages,
/// words, and FLOPs into modeled time (paper Section V: "alpha is the
/// per-message latency, beta is the inverse bandwidth, gamma is the cost
/// per FLOP"). The CoriKNL preset approximates the paper's testbed: Aries
/// interconnect latency, per-node injection bandwidth, and the effective
/// throughput of memory-bound sparse kernels on a 68-core KNL node.

namespace dsk {

struct MachineModel {
  double alpha_seconds_per_message = 0.0;
  double beta_seconds_per_word = 0.0; // one word = 8 bytes
  double gamma_seconds_per_flop = 0.0;

  /// Cray XC40 (Cori) approximation: ~2 microsecond MPI latency, ~8 GB/s
  /// effective per-node injection bandwidth (1e9 words/s), and ~15 GFLOP/s
  /// effective node throughput for bandwidth-bound SpMM/SDDMM.
  static MachineModel cori_knl() {
    return {2.0e-6, 1.0e-9, 1.0 / 15.0e9};
  }
};

} // namespace dsk
