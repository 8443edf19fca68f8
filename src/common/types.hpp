#pragma once
/// \file types.hpp
/// Library-wide scalar/index types and the enums that name the paper's
/// kernel modes, communication-eliding strategies, and cost phases.

#include <cstdint>
#include <string>

namespace dsk {

/// Matrix value type. The paper computes in double precision on KNL.
using Scalar = double;

/// Row/column/nonzero index type. Real-world inputs in the paper reach
/// 1.5 billion nonzeros, beyond 32-bit addressing.
using Index = std::int64_t;

/// The three kernels unified by Algorithms 1 and 2 of the paper.
/// The suffix on SpMM names the operand with the same shape as the output:
///   SpMMA(S, B) = S . B     (A-shaped output)
///   SpMMB(S, A) = S^T . A   (B-shaped output)
enum class Mode {
  SDDMM,
  SpMMA,
  SpMMB,
};

/// FusedMM orientation (Section II):
///   FusedMMA(S,A,B) = SpMMA(SDDMM(A,B,S), B)
///   FusedMMB(S,A,B) = SpMMB(SDDMM(A,B,S), A)
enum class FusedOrientation {
  A,
  B,
};

/// Communication-eliding strategy for FusedMM (Section IV-B, Figure 1).
enum class Elision {
  None,             ///< back-to-back distributed SDDMM then SpMM
  ReplicationReuse, ///< replicate a dense input once for both kernels
  LocalKernelFusion ///< single propagation loop with a fused local kernel
};

/// The distributed algorithm families of Section V / Figure 2.
enum class AlgorithmKind {
  DenseShift15D,   ///< 1.5D dense-shifting, dense-replicating (Algorithm 1)
  SparseShift15D,  ///< 1.5D sparse-shifting, dense-replicating
  DenseRepl25D,    ///< 2.5D dense-replicating (Algorithm 2)
  SparseRepl25D,   ///< 2.5D sparse-replicating
  Baseline1D,      ///< PETSc-like 1D block-row baseline (Section VI-A)
};

/// How the replication-phase fiber collectives move dense row blocks
/// (SpComm3D / SparCML direction): Dense ships whole blocks through the
/// ring collectives — the paper's Table III cost; Auto compares, for the
/// group at hand, the dense ring against shipping each member only the
/// rows in its sparse block's support (plus an index header, point to
/// point) and takes the sparse plan only when it moves fewer words.
enum class ReplicationMode {
  Dense,
  Auto,
};

/// How the propagation-phase cyclic shifts move the dense B-side blocks
/// (the nonzero-granular SpComm3D direction, applied to the shift loop
/// instead of the fiber collectives): Dense forwards whole blocks —
/// the paper's Table III cost; Auto decides per hop whether to ship only
/// the block rows in the column support of the pieces the rest of the
/// ring trip still consumes (read-only payloads) or has written so far
/// (accumulators), as a [count, cols..., values...] message, taking it
/// only when it is smaller than the dense block, so max-per-rank
/// propagation words never exceed Dense.
enum class PropagationMode {
  Dense,
  Auto,
};

/// Value-payload precision on the wire (SparCML direction). Full ships
/// one 64-bit word per Scalar — the paper's accounting and the exactness
/// default. F32/BF16 truncate each value to 32/16 bits and pack 2/4 per
/// word (per row, so chunking never changes the count); decoded values
/// are widened back to Scalar and every accumulation stays in full
/// precision, so the error per value is bounded by one rounding step per
/// wire hop. Quantization is idempotent (re-encoding an already-encoded
/// value is exact), so forwarding an unmodified block along a ring does
/// not compound error.
enum class WirePrecision {
  Full,
  F32,
  BF16,
};

/// The wire-format knob every block message class routes through — see
/// src/runtime/wire.hpp for the codec layer itself. A default-constructed
/// codec reproduces the Full-precision byte layout exactly. Support
/// headers take no knob: every row- and col-support message carries the
/// smallest encoding of its index section (wire.hpp).
struct WireCodec {
  WirePrecision precision = WirePrecision::Full;

  bool is_default() const { return precision == WirePrecision::Full; }
  friend bool operator==(const WireCodec&, const WireCodec&) = default;
};

/// Values packed per 64-bit word at each precision.
constexpr std::int64_t wire_values_per_word(WirePrecision precision) {
  switch (precision) {
    case WirePrecision::F32: return 2;
    case WirePrecision::BF16: return 4;
    case WirePrecision::Full: break;
  }
  return 1;
}

/// Words needed for `count` values of one logical row at `precision`
/// (rows are padded independently so chunk boundaries cannot change
/// totals).
constexpr std::int64_t wire_value_words(std::int64_t count,
                                        WirePrecision precision) {
  const std::int64_t per = wire_values_per_word(precision);
  return (count + per - 1) / per;
}

/// Cost phases used in the paper's time breakdowns (Figures 5 and 9).
enum class Phase {
  Replication, ///< all-gather / reduce-scatter along the fiber axis
  Propagation, ///< cyclic shifts within layers
  Computation, ///< local SDDMM/SpMM/FusedMM kernels
  Application, ///< work outside the FusedMM kernels (apps only)
  Other,
};

constexpr int kNumPhases = 5;

std::string to_string(Mode mode);
std::string to_string(Elision elision);
std::string to_string(AlgorithmKind kind);
std::string to_string(Phase phase);
std::string to_string(FusedOrientation o);
std::string to_string(ReplicationMode mode);
std::string to_string(PropagationMode mode);
std::string to_string(WirePrecision precision);

} // namespace dsk
