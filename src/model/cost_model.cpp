#include "model/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dist/grid.hpp"

namespace dsk {

namespace {

double layer_count(const CostInputs& in) {
  return static_cast<double>(in.p) / in.c;
}

/// Wire words of one encoded dense row of `width` values: ceil division
/// by the values-per-word factor (wire.hpp pads each row independently).
double row_words(double width, WirePrecision precision) {
  return std::ceil(width /
                   static_cast<double>(wire_values_per_word(precision)));
}

/// Wire words of a flat value run (triplet payloads, bare value
/// vectors): one padded run, count / values-per-word continuously.
double flat_words(double count, WirePrecision precision) {
  return count / static_cast<double>(wire_values_per_word(precision));
}

/// Fiber all-gather or reduce-scatter moving `rows` x `width` member
/// blocks around a c-ring: (c-1) hops of one encoded member block each
/// — the Table III (c-1)*mr/p at full precision.
double fiber_words(const CostInputs& in, double rows, double width,
                   WirePrecision precision) {
  return (in.c - 1) * rows * row_words(width, precision);
}

/// How many dense fiber collectives one FusedMM call runs (the factor
/// multiplying fiber_words in the Table III replication terms).
double fiber_ops(Elision elision) {
  return elision == Elision::ReplicationReuse ? 1.0 : 2.0;
}

/// Expected per-rank words of ONE row-sparse fiber collective whose
/// working block has `block_rows` rows holding `block_nnz` uniform
/// nonzeros, with width `width`: each of the c-1 peers receives the
/// expected support restricted to one 1/c slice of the block —
/// support/c encoded rows plus the index section over the slice's
/// block_rows/c rows — behind a one-word count header.
double sparse_fiber_words(double block_nnz, double block_rows,
                          double width, int c, const WireCodec& codec) {
  if (c <= 1) return 0;
  const double support = expected_distinct(block_nnz, block_rows);
  const double per_peer = support / c;
  return (c - 1) *
         (per_peer * row_words(width, codec.precision) +
          expected_index_words(per_peer, block_rows / c,
                               codec.index_codec) +
          1);
}

} // namespace

double expected_index_words(double support, double block_rows,
                            IndexCodec codec) {
  const double raw = support;
  if (codec == IndexCodec::Raw) return raw;
  const double bitmap = std::ceil(block_rows / 64.0);
  if (codec == IndexCodec::Bitmap) return bitmap;
  // DeltaVarint: LEB128 bytes of the mean gap (7 payload bits per byte),
  // one such gap per support row, byte-packed into words.
  double gap = support > 0 ? block_rows / support : 1.0;
  double bytes_per_gap = 1.0;
  while (gap >= 128.0) {
    gap /= 128.0;
    bytes_per_gap += 1.0;
  }
  const double varint = std::ceil(support * bytes_per_gap / 8.0);
  if (codec == IndexCodec::DeltaVarint) return varint;
  return std::min({raw, varint, bitmap}); // Auto, ties Raw first
}

double expected_distinct(double draws, double bins) {
  if (bins <= 0 || draws <= 0) return 0;
  return bins * (1.0 - std::pow(1.0 - 1.0 / bins, draws));
}

namespace {

/// Expected words of one compressed hop whose remaining consumers draw
/// `draws` uniform nonzeros over `block_rows` rows of a width-wide
/// block: header + encoded support rows + index section, nothing when
/// no consumer remains. With auto_hops the encoded dense block wins
/// whenever it is smaller (the shift loop's per-link crossover applied
/// in expectation).
double sparse_hop_words(double draws, double block_rows, double width,
                        bool auto_hops, const WireCodec& codec) {
  const double dense = block_rows * row_words(width, codec.precision);
  if (draws <= 0) return 0.0; // nothing left to ship; sparse always wins
  const double support = expected_distinct(draws, block_rows);
  const double sparse =
      1.0 + support * row_words(width, codec.precision) +
      expected_index_words(support, block_rows, codec.index_codec);
  return auto_hops ? std::min(dense, sparse) : sparse;
}

/// Sum of the per-hop expected words over one read-only ring trip of
/// `ring` hops: the hop after step t serves the ring-1-t remaining
/// consumers, each drawing `draws_per_consumer` nonzeros.
double sparse_ring_words(double ring, double draws_per_consumer,
                         double block_rows, double width, bool auto_hops,
                         const WireCodec& codec) {
  if (ring <= 1) return 0; // self-shifts are free
  double total = 0;
  for (double t = 0; t < ring; t += 1) {
    total += sparse_hop_words((ring - 1 - t) * draws_per_consumer,
                              block_rows, width, auto_hops, codec);
  }
  return total;
}

/// Encoded COO triplet words per nonzero: two Raw index words plus the
/// flat value payload (wire.hpp's encoded_triplets_words continuously).
double triplet_factor(WirePrecision precision) {
  return 2.0 +
         1.0 / static_cast<double>(wire_values_per_word(precision));
}

} // namespace

double expected_sparse_propagation_words(AlgorithmKind kind,
                                         Elision elision,
                                         const CostInputs& in,
                                         bool auto_hops,
                                         const WireCodec& codec) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D: {
      // B blocks of n/p rows x r circulate an L-ring; the L consumers of
      // one block each hold a piece of nnz/(p*L) expected nonzeros.
      const double L = layer_count(in);
      const double loops = elision == Elision::LocalKernelFusion ? 1 : 2;
      return loops * sparse_ring_words(L, in.nnz / (in.p * L), in.n / in.p,
                                       in.r, auto_hops, codec);
    }
    case AlgorithmKind::DenseRepl25D: {
      // The n/(qc)-row B blocks compress; the circulating COO triplets
      // are already sparsity-sized and stay at their (precision-encoded)
      // triplet words.
      const Grid25D grid(in.p, in.c);
      const double q = grid.q();
      const double triplets =
          q > 1 ? 2.0 * q * triplet_factor(codec.precision) * in.nnz / in.p
                : 0.0;
      return triplets + 2.0 * sparse_ring_words(q, in.nnz / in.p,
                                                in.n / (q * in.c),
                                                in.r / q, auto_hops,
                                                codec);
    }
    case AlgorithmKind::SparseRepl25D: {
      // Both dense slices compress against the stationary cells: A by
      // row support over m/q rows, B by column support over n/q rows,
      // each consumer cell drawing nnz/q^2 nonzeros, width r/(qc).
      const Grid25D grid(in.p, in.c);
      const double q = grid.q();
      const double width = in.r / (q * in.c);
      const double draws = in.nnz / (q * q);
      return 2.0 * (sparse_ring_words(q, draws, in.m / q, width,
                                      auto_hops, codec) +
                    sparse_ring_words(q, draws, in.n / q, width,
                                      auto_hops, codec));
    }
    case AlgorithmKind::SparseShift15D:
    case AlgorithmKind::Baseline1D:
      // Propagation is already sparsity-sized (COO triplets / distinct
      // remote-row fetches); the column-support mode changes nothing.
      return fusedmm_cost(kind, elision, in, ReplicationMode::Dense,
                          PropagationMode::Dense, codec)
          .propagation_words;
  }
  fail("expected_sparse_propagation_words: unknown algorithm kind");
}

double expected_sparse_replication_words(AlgorithmKind kind,
                                         Elision elision,
                                         const CostInputs& in,
                                         const WireCodec& codec) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D: {
      // Working block m*c/p rows, nnz/p local nonzeros, full width r.
      return fiber_ops(elision) *
             sparse_fiber_words(in.nnz / in.p, in.m * in.c / in.p, in.r,
                                in.c, codec);
    }
    case AlgorithmKind::SparseShift15D: {
      // Full-m slice of width r*c/p; the layer's column group holds
      // nnz/c nonzeros.
      return fiber_ops(elision) *
             sparse_fiber_words(in.nnz / in.c, in.m, in.r * in.c / in.p,
                                in.c, codec);
    }
    case AlgorithmKind::DenseRepl25D: {
      // Working block m/q rows and width r/q; the rank's q pieces hold
      // nnz/(q*c) nonzeros.
      const Grid25D grid(in.p, in.c);
      const double q = grid.q();
      return fiber_ops(elision) *
             sparse_fiber_words(in.nnz / (q * in.c), in.m / q, in.r / q,
                                in.c, codec);
    }
    case AlgorithmKind::SparseRepl25D:
    case AlgorithmKind::Baseline1D:
      // Replication is already sparsity-sized (value vectors) or absent;
      // the row-sparse mode changes nothing.
      return fusedmm_cost(kind, elision, in, ReplicationMode::Dense,
                          PropagationMode::Dense, codec)
          .replication_words;
  }
  fail("expected_sparse_replication_words: unknown algorithm kind");
}

CommCost fusedmm_cost(AlgorithmKind kind, Elision elision,
                      const CostInputs& in, ReplicationMode mode,
                      PropagationMode propagation,
                      const WireCodec& codec) {
  if (mode != ReplicationMode::Dense ||
      propagation != PropagationMode::Dense) {
    CommCost cost = fusedmm_cost(kind, elision, in, ReplicationMode::Dense,
                                 PropagationMode::Dense, codec);
    if (mode != ReplicationMode::Dense) {
      const double sparse =
          expected_sparse_replication_words(kind, elision, in, codec);
      cost.replication_words =
          mode == ReplicationMode::SparseRows
              ? sparse
              : std::min(cost.replication_words, sparse);
    }
    if (propagation != PropagationMode::Dense) {
      cost.propagation_words = expected_sparse_propagation_words(
          kind, elision, in,
          /*auto_hops=*/propagation == PropagationMode::Auto, codec);
    }
    return cost;
  }
  check(in.p >= 1 && in.c >= 1, "fusedmm_cost: bad processor counts");
  const WirePrecision prec = codec.precision;
  CommCost cost;
  switch (kind) {
    case AlgorithmKind::DenseShift15D: {
      check(Grid15D::valid(in.p, in.c), "fusedmm_cost: invalid 1.5D grid p=",
            in.p, " c=", in.c);
      // A ring of one rank shifts to itself for free (the implementation
      // and MPI alike skip self-messages).
      const double shifts = layer_count(in) > 1 ? layer_count(in) : 0;
      const double shift_words = in.n / in.p * row_words(in.r, prec);
      const double fiber = fiber_words(in, in.m / in.p, in.r, prec);
      switch (elision) {
        case Elision::None:
          cost.replication_words = 2 * fiber;
          cost.propagation_words = 2 * shifts * shift_words;
          cost.messages = 2 * (in.c - 1) + 2 * shifts;
          break;
        case Elision::ReplicationReuse:
          cost.replication_words = fiber;
          cost.propagation_words = 2 * shifts * shift_words;
          cost.messages = (in.c - 1) + 2 * shifts;
          break;
        case Elision::LocalKernelFusion:
          cost.replication_words = 2 * fiber;
          cost.propagation_words = shifts * shift_words;
          cost.messages = 2 * (in.c - 1) + shifts;
          break;
      }
      return cost;
    }
    case AlgorithmKind::SparseShift15D: {
      check(Grid15D::valid(in.p, in.c), "fusedmm_cost: invalid 1.5D grid p=",
            in.p, " c=", in.c);
      check(elision != Elision::LocalKernelFusion,
            "sparse shifting admits no local kernel fusion");
      const double shifts = layer_count(in) > 1 ? layer_count(in) : 0;
      // COO triplets: 3 nnz/p at full precision.
      const double shift_words = triplet_factor(prec) * in.nnz / in.p;
      cost.propagation_words = 2 * shifts * shift_words; // = 6 nnz / c
      cost.replication_words =
          (elision == Elision::ReplicationReuse ? 1 : 2) *
          fiber_words(in, in.m / in.c, in.r * in.c / in.p, prec);
      cost.messages = 2 * shifts +
                      (elision == Elision::ReplicationReuse ? 1 : 2) *
                          (in.c - 1);
      return cost;
    }
    case AlgorithmKind::DenseRepl25D: {
      check(Grid25D::valid(in.p, in.c), "fusedmm_cost: invalid 2.5D grid p=",
            in.p, " c=", in.c);
      check(elision != Elision::LocalKernelFusion,
            "2.5D dense replicating admits no local kernel fusion");
      const Grid25D grid(in.p, in.c);
      const double q = grid.q() > 1 ? grid.q() : 0; // self-shifts are free
      const double qd = grid.q();
      const double dense_shift =
          in.n / (qd * in.c) * row_words(in.r / qd, prec); // nb * rs
      const double sparse_shift = triplet_factor(prec) * in.nnz / in.p;
      cost.propagation_words = 2 * q * (dense_shift + sparse_shift);
      cost.replication_words =
          (elision == Elision::ReplicationReuse ? 1 : 2) *
          fiber_words(in, in.m / (qd * in.c), in.r / qd, prec);
      cost.messages = 4 * q +
                      (elision == Elision::ReplicationReuse ? 1 : 2) *
                          (in.c - 1);
      return cost;
    }
    case AlgorithmKind::SparseRepl25D: {
      check(Grid25D::valid(in.p, in.c), "fusedmm_cost: invalid 2.5D grid p=",
            in.p, " c=", in.c);
      check(elision == Elision::None,
            "2.5D sparse replicating admits no communication elision");
      const Grid25D grid(in.p, in.c);
      const double q = grid.q() > 1 ? grid.q() : 0; // self-shifts are free
      const double qd = grid.q();
      // Dense slices of mr/p words; two shifted matrices per loop phase,
      // two loops. (m/q rows x r/(qc) width per slice.)
      cost.propagation_words =
          4 * q * in.m / qd * row_words(in.r / (qd * in.c), prec);
      // Value traffic along the fiber: initial all-gather (wire-encoded
      // flat values) + all-reduce of the dot sums (always full
      // precision, like the runtime) of the per-block nnz*c/p values.
      const double block_nnz = in.nnz * in.c / in.p;
      cost.replication_words =
          (flat_words(1.0, prec) + 2.0) * (in.c - 1) /
          static_cast<double>(in.c) * block_nnz;
      cost.messages = 4 * q + 3 * (in.c - 1);
      return cost;
    }
    case AlgorithmKind::Baseline1D: {
      check(in.c == 1, "fusedmm_cost: baseline has no replication factor");
      // Expected distinct remote rows per rank for a random sparse
      // pattern: each rank holds nnz/p nonzeros whose columns are
      // uniform; nearly all are remote for large p. Upper bound used by
      // the paper's reasoning: no replication, words do not shrink with
      // p beyond the nnz/p term. Two SpMM calls per FusedMM surrogate.
      // Fetch replies are flat value runs, so they wire-encode.
      const double remote_fraction = 1.0 - 1.0 / in.p;
      const double distinct =
          in.n / in.p < 1 ? in.nnz / in.p
                          : in.n * (1.0 - std::pow(1.0 - 1.0 / in.n,
                                                   in.nnz / in.p));
      cost.propagation_words =
          2 * remote_fraction * flat_words(distinct * in.r, prec);
      cost.messages = 2.0 * (in.p - 1);
      return cost;
    }
  }
  fail("fusedmm_cost: unknown algorithm kind");
}

CommCost kernel_cost(AlgorithmKind kind, const CostInputs& in) {
  // One kernel communicates exactly half of an unoptimized FusedMM pair
  // (Section IV-A: SDDMM and SpMM have identical communication).
  CommCost pair = fusedmm_cost(kind, Elision::None, in);
  pair.replication_words /= 2;
  pair.propagation_words /= 2;
  pair.messages /= 2;
  return pair;
}

ScheduleBounds schedule_bounds(AlgorithmKind kind, Elision elision,
                               const CostInputs& in, const MachineModel& m,
                               ReplicationMode mode,
                               PropagationMode propagation,
                               const WireCodec& codec) {
  const CommCost cost =
      fusedmm_cost(kind, elision, in, mode, propagation, codec);
  // FusedMM arithmetic per rank: 2·nnz·r/p for the masked dots, nnz/p
  // for the Hadamard, 2·nnz·r/p for the SpMM — (4r + 1)·nnz/p.
  const double flops = (4.0 * in.r + 1.0) * in.nnz / in.p;
  // Message latency rides with the propagation term (the shift loop
  // sends most of the messages and is where the schedules differ).
  const double repl = m.beta_seconds_per_word * cost.replication_words;
  const double prop = m.beta_seconds_per_word * cost.propagation_words +
                      m.alpha_seconds_per_message * cost.messages;
  const double comp = m.gamma_seconds_per_flop * flops;
  ScheduleBounds bounds;
  bounds.bulk_synchronous = repl + prop + comp;
  bounds.double_buffered = repl + std::max(prop, comp);
  return bounds;
}

double amortized_setup_share(double build_seconds, double request_seconds,
                             int requests) {
  const double total =
      build_seconds + request_seconds * static_cast<double>(requests);
  return total > 0.0 ? build_seconds / total : 0.0;
}

double batching_words_ratio(AlgorithmKind kind, const CostInputs& in,
                            int k) {
  check(k >= 1, "batching_words_ratio: k must be >= 1");
  const double narrow = kernel_cost(kind, in).total_words();
  CostInputs wide = in;
  wide.r = in.r * static_cast<double>(k);
  const double batched = kernel_cost(kind, wide).total_words();
  return batched > 0.0 ? narrow * static_cast<double>(k) / batched : 1.0;
}

} // namespace dsk
