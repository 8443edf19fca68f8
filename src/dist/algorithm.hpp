#pragma once
/// \file algorithm.hpp
/// What callers of the distributed algorithm drivers (paper Section V)
/// name: the options, the results, and which family runs which op. The
/// families are 1.5D dense-shifting (Algorithm 1), 1.5D sparse-shifting,
/// the 2.5D dense-replicating (Algorithm 2) and sparse-replicating
/// variants, and the PETSc-like 1D block-row baseline. Every driver runs
/// the unified kernel (SDDMM / SpMMA / SpMMB — Section IV-A) and FusedMM
/// in both orientations with the communication-eliding strategies of
/// Section IV-B, over the simulated runtime with word-exact cost
/// accounting. The drivers themselves are internal (dist/families.hpp);
/// the one way to run them is `make_plan` + `Plan::execute` in
/// dist/plan.hpp.
///
/// All algorithms verify against the same serial references; the cost
/// property tests additionally assert that the measured replication and
/// propagation words equal the paper's Table III closed forms exactly on
/// load-balanced inputs.

#include <string>
#include <utility>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "dist/shift_loop.hpp"
#include "runtime/stats.hpp"
#include "sparse/coo.hpp"

namespace dsk {

/// Tuning knobs shared by every algorithm family. The schedule selects
/// the propagation engine (see shift_loop.hpp); both schedules produce
/// bit-identical outputs and identical word counts, so the default is
/// the overlapping one.
///
/// `replication` selects how the replication-phase fiber collectives
/// move the A-side row blocks (SpComm3D direction): Dense ships whole
/// blocks through the ring collectives — the paper's Table III cost,
/// kept as the default so the exact cost-model tests stay exact; Auto
/// ships only the rows in each local sparse block's support plus an
/// index header whenever that moves fewer words for the fiber at hand.
/// Both modes produce bit-identical outputs. The knob is a no-op for
/// families whose replication traffic is already sparsity-sized (2.5D
/// sparse replicating) or absent (1D baseline).
/// `propagation` selects how the propagation-phase cyclic shifts move
/// the dense B-side blocks (the nonzero-granular SpComm3D direction
/// applied to the shift loop): Dense forwards whole blocks — the
/// paper's Table III cost, kept as the default so the exact cost-model
/// tests stay exact; Auto decides per hop whether to ship only the block
/// rows in the column support the rest of the ring trip still consumes
/// (or, for circulating accumulators, has written so far) as a
/// [count, cols..., values...] message, so max-per-rank propagation
/// words never exceed Dense. Both modes are bit-identical. The knob is
/// a no-op for channels that are already sparsity-sized (the
/// circulating COO triplets of 1.5D sparse shifting and the 2.5D S
/// pieces) and for the 1D baseline's support-sized fetches; the 2.5D
/// sparse-replicating family compresses BOTH of its circulating dense
/// slices (rows by row support, columns by column support).
struct FaultPlan;

struct AlgorithmOptions {
  ShiftSchedule schedule = ShiftSchedule::DoubleBuffered;
  ReplicationMode replication = ReplicationMode::Dense;
  PropagationMode propagation = PropagationMode::Dense;
  /// Borrowed fault plan (must outlive the run); null = fault-free.
  /// Every driver recovers injected rank crashes: the 2.5D families
  /// rebuild the lost shard from their replicas (falling back to the
  /// digest-verified checkpoint store when no peer survives), and the
  /// 1.5D/1D families — which hold no redundancy — restore it from the
  /// checkpoint store directly; then the whole call re-runs, so outputs
  /// and per-phase words equal the fault-free run's.
  const FaultPlan* faults = nullptr;
  /// Recovery-attempt budget, only read when `faults` injects crashes.
  int max_recoveries = 4;
  /// Graceful degradation: when recovery is impossible or the budget is
  /// exhausted, re-shard the padded problem onto the largest valid
  /// smaller grid and re-run fault-free from the checkpointed inputs
  /// instead of surfacing the WorldError.
  bool degrade = false;
  /// Wire codec for every block message class (dense hops, row/col
  /// support messages, circulating triplets, bare value fibers).
  /// `codec.precision` selects the value encoding: Full keeps the
  /// historical one-word-per-value layout (and Table III exactness);
  /// F32 / BF16 pack 2 / 4 values per word, shrinking wire words at a
  /// documented accuracy cost. Support headers need no knob: every row-
  /// and col-support message carries its smallest index section.
  /// Dot-sum collectives (allreduce) and checkpoints always stay full
  /// precision — the codec governs block wire traffic only.
  WireCodec codec{};
};

/// Result of one unified kernel call. `dense` holds the global SpMM
/// output (empty for SDDMM); `sddmm_values` holds the SDDMM output
/// values in the input matrix's entry order (empty for SpMM).
struct KernelResult {
  DenseMatrix dense;
  std::vector<Scalar> sddmm_values;
  WorldStats stats;
};

/// Result of a FusedMM call: the A-shaped (orientation A) or B-shaped
/// (orientation B) global output.
struct FusedResult {
  DenseMatrix output;
  WorldStats stats;
};

/// True when the family admits the eliding strategy (paper Figure 1:
/// local kernel fusion needs co-located full rows, so only 1.5D dense
/// shifting supports it; 2.5D sparse replication and the 1D baseline
/// elide nothing).
bool supports(AlgorithmKind kind, Elision elision);

/// Why the family cannot run the unified kernel in `mode`, or empty when
/// it can: the 1D baseline runs SpMMA only.
std::string unsupported_reason(AlgorithmKind kind, Mode mode);

/// Why the family cannot run FusedMM in this orientation and elision, or
/// empty when it can: the elision must be supported, and the 1D baseline
/// runs orientation A only.
std::string unsupported_reason(AlgorithmKind kind,
                               FusedOrientation orientation,
                               Elision elision);

/// True when (p, c) forms a valid grid for the family (c | p; 2.5D
/// additionally needs p/c square; the baseline has no replication).
bool valid_config(AlgorithmKind kind, int p, int c);

/// The largest valid (p', c') with p' < p and c' <= c — the surviving
/// grid a degraded run re-plans onto after losing a rank. Throws when no
/// smaller valid configuration exists (p == 1).
std::pair<int, int> shrink_config(AlgorithmKind kind, int p, int c);

} // namespace dsk
