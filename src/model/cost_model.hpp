#pragma once
/// \file cost_model.hpp
/// The paper's communication cost model (Table III): per-processor words
/// and messages for one FusedMM call under each algorithm family and
/// eliding strategy, split into replication (fiber all-gather /
/// reduce-scatter) and propagation (cyclic shifts) terms. The runtime
/// measures these same quantities, and the property tests assert
/// measured == modeled exactly on load-balanced inputs.

#include "common/types.hpp"
#include "runtime/machine.hpp"

namespace dsk {

/// Problem parameters for the model. The paper's analysis assumes m ~ n;
/// we keep both so rectangular problems model correctly.
struct CostInputs {
  double m = 0;   ///< rows of S / A
  double n = 0;   ///< cols of S / rows of B
  double r = 0;   ///< embedding width
  double nnz = 0; ///< nonzeros of S
  int p = 1;      ///< processors
  int c = 1;      ///< replication factor

  double phi() const { return nnz / (n * r); } ///< Table I ratio
};

struct CommCost {
  double replication_words = 0;
  double propagation_words = 0;
  double messages = 0;

  double total_words() const {
    return replication_words + propagation_words;
  }
};

/// Words/messages for ONE FusedMM call (the paper's Table III rows).
/// Throws when the (kind, elision) pair is unsupported (e.g. local kernel
/// fusion outside 1.5D dense shifting) or the grid is invalid.
///
/// `mode` selects the replication-collective cost: Dense reproduces the
/// exact Table III fiber terms; Auto takes the smaller of those and the
/// EXPECTED supported-row traffic of the row-sparse collectives under a
/// uniform sparsity pattern (support * r scalars per fiber peer, plus
/// the expected index section and one count word per message), mirroring
/// Group::allgatherv_rows' decision. Families whose replication traffic
/// is already sparsity-sized (2.5D sparse replicating) or absent (1D
/// baseline) are mode-independent.
///
/// `propagation` selects the shift-loop cost the same way: Dense keeps
/// the exact Table III propagation terms; Auto replaces the dense
/// circulating-block words with the per-hop minimum of the dense block
/// and the EXPECTED column-support message
/// (expected_sparse_propagation_words below), mirroring the shift loop's
/// per-link crossover. Channels that are already sparsity-sized (the
/// circulating COO triplets) and the 1D baseline's support-sized fetches
/// are propagation-mode-independent.
///
/// `codec` prices the wire codec the runtime applies at hop boundaries
/// (runtime/wire.hpp): low-precision values shrink every value payload
/// by the values-per-word factor (dense rows pad per row, flat runs —
/// triplet values, bare value fibers — pad once). Expected support
/// headers take the smallest of one word per index, the LEB128 length
/// of the mean gap, and a ceil(rows/64) bitmap, as the runtime does.
/// Dot-sum collectives stay full precision, mirroring the runtime. The
/// default codec reproduces the exact Table III terms.
CommCost fusedmm_cost(AlgorithmKind kind, Elision elision,
                      const CostInputs& in,
                      ReplicationMode mode = ReplicationMode::Dense,
                      PropagationMode propagation = PropagationMode::Dense,
                      const WireCodec& codec = {});

/// Expected number of distinct bins hit by `draws` uniform draws over
/// `bins` bins: bins * (1 - (1 - 1/bins)^draws) — the expected row
/// support of a block holding `draws` nonzeros over `bins` rows.
double expected_distinct(double draws, double bins);

/// Expected index-section words of a sorted `support`-row header over a
/// `block_rows`-row block — the continuous mirror of wire.hpp's
/// encoded_index_words (the smallest of one word per index, the LEB128
/// length of the mean gap, and the bitmap). Exposed for tests and the
/// predictor.
double expected_index_words(double support, double block_rows);

/// The expected per-rank replication words of the row-sparse plan, which
/// fusedmm_cost's Auto mode weighs against Dense; exposed for tests and
/// the predictor.
double expected_sparse_replication_words(AlgorithmKind kind,
                                         Elision elision,
                                         const CostInputs& in,
                                         const WireCodec& codec = {});

/// The expected per-rank propagation words fusedmm_cost uses for Auto
/// mode: each hop contributes min(dense, sparse), the rule the shift
/// loop applies per link on actual supports. Modeled for the
/// unfused read-only FusedMM pair under a uniform sparsity pattern: the
/// hop after step t of an L-step ring carries the expected distinct
/// column support of the L-1-t REMAINING consumers — 1 count word +
/// E[support]*width words + the expected index section, nothing at all
/// on the homeward hop. The accumulator direction (SpMM-B passes)
/// mirrors this with prefix unions, differing only in the endpoint hop;
/// the closed form uses the read-only direction throughout, like the
/// paper's pair accounting.
/// Families whose shifted payloads are already sparsity-sized (1.5D
/// sparse shifting, 1D baseline) return the dense propagation words
/// unchanged; the 2.5D families keep their triplet terms dense and
/// compress only the dense circulating blocks (both slices for the
/// sparse-replicating family).
double expected_sparse_propagation_words(AlgorithmKind kind,
                                         Elision elision,
                                         const CostInputs& in,
                                         const WireCodec& codec = {});

/// Words/messages for one unified kernel call (SDDMM or either SpMM —
/// identical by the paper's Section IV-A equivalence).
CommCost kernel_cost(AlgorithmKind kind, const CostInputs& in);

/// Modeled per-rank seconds for ONE FusedMM call under each shift-loop
/// schedule, from the Table III closed forms plus the FusedMM flop count
/// ((4r + 1)·nnz/p per rank):
///   BulkSynchronous — repl + prop + comp, the serialized BSP sum;
///   DoubleBuffered  — repl + max(prop, comp): propagation hidden behind
///                     local kernels, replication still up front.
/// These are upper bounds on the benefit (perfect overlap, zero
/// scheduling overhead). Word and message counts are schedule-invariant,
/// so the alpha and beta terms are exact. bench_ablation_overlap prints
/// these next to the measured schedule walls.
struct ScheduleBounds {
  double bulk_synchronous = 0;
  double double_buffered = 0;
};
ScheduleBounds schedule_bounds(AlgorithmKind kind, Elision elision,
                               const CostInputs& in, const MachineModel& m,
                               ReplicationMode mode = ReplicationMode::Dense,
                               PropagationMode propagation =
                                   PropagationMode::Dense,
                               const WireCodec& codec = {});

/// Serving-layer plan-cost accounting (dist/plan.hpp): the fraction of
/// total wall time spent in the one-time plan build after `requests`
/// executions that each take `request_seconds`. Goes to zero as the
/// resident Plan amortizes its setup; the classic per-call path holds it
/// constant at build/(build + request). Returns 0 for zero requests with
/// zero build time, 1 for zero-cost requests with a nonzero build.
double amortized_setup_share(double build_seconds, double request_seconds,
                             int requests);

/// Modeled per-rank traffic ratio of serving `k` narrow width-r
/// requests one kernel call at a time versus one batched k*r-wide call
/// (the serving layer's batched passes, apps/serving.hpp): words(k calls
/// at in.r) / words(1 call at k*in.r). Greater than 1 means batching
/// wins on traffic — replication words are paid once instead of k times
/// while propagation scales with total width either way.
double batching_words_ratio(AlgorithmKind kind, const CostInputs& in, int k);

} // namespace dsk
