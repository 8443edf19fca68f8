/// \file algorithm_25d.cpp
/// The 2.5D algorithm family (paper Algorithm 2 and its
/// sparse-replicating sibling) on the q x q x c grid of dist/grid.hpp.
///
/// Dense replicating: S lives in q x (q*c) blocks and circulates along
/// row rings together with n/(qc)-row blocks of B along column rings,
/// Cannon-style, while the dense A side is replicated along fibers
/// (all-gather in, reduce-scatter out) — both a sparse and a dense block
/// move on every shift, which is why the propagation term carries both
/// 3*nnz/p and n*r/p words per step.
///
/// Sparse replicating: the q x q cells of S are replicated across the c
/// fiber ranks (pattern at setup, values by an all-gather each call) and
/// stay put; both dense matrices circulate as m*r/p slices, skewed
/// Cannon-style so the A and B slices resident on a rank always cover
/// the same width range. SDDMM dot products accumulate in a stationary
/// per-cell buffer and are summed across the fiber with one all-reduce.

#include <memory>

#include "common/error.hpp"
#include "dist/families.hpp"
#include "dist/replication_cache.hpp"
#include "dist/grid.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/collectives.hpp"
#include "runtime/world.hpp"
#include "sparse/partition.hpp"

namespace dsk::detail {
namespace {

// --------------------------------------------------------- dense replicate

class DenseRepl25D final : public DistAlgorithm {
 public:
  DenseRepl25D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::DenseRepl25D, p, c, options),
        grid_(p, c) {}

  std::shared_ptr<const PlanData> make_plan_data(const CooMatrix& s,
                                                 Index r) const override {
    return freeze_setup(make_setup(s, r));
  }

 protected:
  void do_run_kernel(const ExecContext& ctx, Mode mode, const CooMatrix& s,
                     const DenseMatrix& a, const DenseMatrix& b,
                     KernelResult& out) const override;
  void do_run_fusedmm(const ExecContext& ctx, FusedOrientation orientation,
                      Elision elision, const CooMatrix& s,
                      const DenseMatrix& a, const DenseMatrix& b,
                      int repetitions, FusedResult& out) const override;

 private:
  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mq = 0;  ///< S row-block height m / q
    Index mqc = 0; ///< canonical A chunk height m / (qc)
    Index nqc = 0; ///< shifting B block height n / (qc)
    Index rq = 0;  ///< width slice r / q
    /// Piece (u, k, w): S block of row-block u and column block k*c+w.
    std::vector<SparseShard> pieces;
    /// Row support of rank (u, *, w)'s mq-row working block (union over
    /// its q pieces — independent of v), stored at u*c + w so each
    /// fiber's c member supports are contiguous in fiber (w) order.
    std::vector<std::vector<Index>> support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    const Index qc = static_cast<Index>(q) * c();
    su.mq = su.m / q;
    su.mqc = su.mq / c();
    su.nqc = su.n / qc;
    su.rq = su.r / q;
    su.pieces = shard_coo(
        s, q * q * c(),
        [&](Index row, Index col) {
          const int u = static_cast<int>(row / su.mq);
          const int g = static_cast<int>(col / su.nqc);
          return (u * q + g / c()) * c() + g % c();
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row % su.mq, col % su.nqc);
        },
        [&](int) { return std::pair<Index, Index>(su.mq, su.nqc); });
    su.support.assign(static_cast<std::size_t>(q * c()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int u = 0; u < q; ++u) {
        for (int w = 0; w < c(); ++w) {
          std::vector<const SparseShard*> mine;
          for (int k = 0; k < q; ++k) mine.push_back(&piece(su, u, k, w));
          su.support[static_cast<std::size_t>(u * c() + w)] =
              union_row_support(mine, su.mq);
        }
      }
    }
    return su;
  }

  /// The c member supports of fiber (u, *), in fiber-position (w) order.
  std::span<const std::vector<Index>> fiber_wants(const Setup& su,
                                                 int u) const {
    return {su.support.data() + static_cast<std::size_t>(u) *
                                    static_cast<std::size_t>(c()),
            static_cast<std::size_t>(c())};
  }

  const SparseShard& piece(const Setup& su, int u, int k, int w) const {
    return su.pieces[static_cast<std::size_t>((u * grid_.q() + k) * c() +
                                              w)];
  }

  /// Fiber all-gather of the rank's canonical A chunk into its m/q x r/q
  /// working block (row-sparse per options().replication). On a cache
  /// hit the parked block itself is returned without touching the wire;
  /// on a filling run the gathered block is parked (shared) for the next
  /// call.
  std::shared_ptr<const DenseMatrix> replicate_a(
      Comm& comm, const Setup& su, int u, int v, int w,
      const DenseMatrix& a, const WireCodec& codec,
      const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    auto out = std::make_shared<const DenseMatrix>(fiber.allgatherv_rows(
        dense_block(a, static_cast<Index>(u) * su.mq + w * su.mqc, su.mqc,
                    static_cast<Index>(v) * su.rq, su.rq),
        fiber_wants(su, u), options().replication, codec));
    if (cu.cache != nullptr) cu.cache->store(comm.rank(), out);
    return out;
  }

  /// Fiber reduce-scatter of the rank's m/q x r/q partial; writes its
  /// canonical chunk of the A-shaped output.
  void reduce_partial(Comm& comm, const Setup& su, int u, int v, int w,
                      const DenseMatrix& partial, DenseMatrix& out,
                      const WireCodec& codec) const {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    auto chunk = fiber.reduce_scatter_rows(partial, fiber_wants(su, u),
                                           options().replication, codec);
    place_block(out, chunk,
                static_cast<Index>(u) * su.mq + w * su.mqc,
                static_cast<Index>(v) * su.rq);
  }

  /// Column-support wire schedules of the circulating B blocks on the
  /// column ring of (v, w) (inactive under Dense propagation): block k's
  /// consumer at step t is the row-position u_t = (k - v - t) mod q,
  /// touching exactly the rows in its piece-(u_t, k, w) column support.
  ShiftCompression b_compression(const Setup& su, int u, int v, int w,
                                 bool mutates,
                                 const WireCodec& codec) const {
    const int q = grid_.q();
    return make_ring_compression(
        options().propagation, su.nqc, su.rq, q, k_at(u, v, 0), mutates,
        [this, &su, v, w, q](int origin,
                             int step) -> std::span<const Index> {
          const int consumer = ((origin - v - step) % q + q) % q;
          return piece(su, consumer, origin, w).col_support;
        },
        codec);
  }

  /// The resident S / B column-block ring index at step t on rank
  /// (u, v, w): Cannon skew (u + v + t) mod q.
  int k_at(int u, int v, int t) const { return (u + v + t) % grid_.q(); }

  /// The rank's stationary shard: its home piece (u, k0, w), replicated
  /// around its row ring (the ring traffic materializes a copy of every
  /// circulating piece on every ring peer), so the ring peers are where
  /// a crashed shard is rebuilt from. A p = c grid leaves every ring
  /// with one member and no peer; its crashes restore the checkpoint.
  StationaryShard shard(const Setup& su, int rank) const {
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto& values = piece(su, u, k_at(u, v, 0), w).coo.values;
    StationaryShard out{{values.begin(), values.end()}, {}};
    for (const int m : grid_.row_members(u, w)) {
      if (m != rank) out.peers.push_back(m);
    }
    return out;
  }

  /// Global row of B column block k (for layer w).
  Index b_row0(const Setup& su, int k, int w) const {
    return (static_cast<Index>(k) * c() + w) * su.nqc;
  }

  /// The v-th width slice of B column block k0 — the B payload resident
  /// on rank (u, v, w) at step 0.
  DenseMatrix b0_block(const Setup& su, int k0, int v, int w,
                       const DenseMatrix& b) const {
    return dense_block(b, b_row0(su, k0, w), su.nqc,
                       static_cast<Index>(v) * su.rq, su.rq);
  }

  /// Replicate A and run the SDDMM dot loop (S dots circulate on the row
  /// ring, B blocks on the column ring) — shared by the SDDMM kernel and
  /// the FusedMM SDDMM pass. Returns the working block and the home
  /// piece's accumulated dot payload.
  std::pair<std::shared_ptr<const DenseMatrix>, Triplets> sddmm_pass(
      Comm& comm, const Setup& su, int u, int v, int w,
      const DenseMatrix& a, const DenseMatrix& b, const WireCodec& codec,
      const CacheUse& cu = {}) const {
    const int q = grid_.q();
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    auto a_work = replicate_a(comm, su, u, v, w, a, codec, cu);
    Triplets start = piece(su, u, k0, w).coo;
    start.values.assign(start.size(), Scalar{0});
    const ShiftCompression bcomp =
        b_compression(su, u, v, w, /*mutates=*/false, codec);
    ShiftChannel channels[] = {
        ring_channel(row_ring, v, kTagShift, /*mutates=*/true,
                     pack_triplets(start, codec)),
        ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/false,
                     b0_block(su, k0, v, w, b), bcomp)};
    const auto body = [&](int t) {
      const int k = k_at(u, v, t);
      auto payload = unpack_triplets(channels[0].block, codec);
      comm.stats().add_flops(
          masked_dot_products(piece(su, u, k, w).csr, *a_work,
                              channels[1].dense, payload.values));
      channels[0].block = pack_triplets(payload, codec);
    };
    run_shift_loop(comm, options().schedule, q, channels, body);
    return {std::move(a_work), unpack_triplets(channels[0].block, codec)};
  }

  Grid25D grid_;
};

void DenseRepl25D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                 const CooMatrix&, const DenseMatrix& a,
                                 const DenseMatrix& b,
                                 KernelResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const int q = grid_.q();
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  // One driver-thread cache decision for the whole run; SpMMA never
  // consults the cache (its Replication phase is the output
  // reduce-scatter, not a reusable input gather).
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    const auto* live = rec.live(rank);
    const ShardView home(piece(su, u, k0, w), live);
    const auto home_triplets = [&] {
      Triplets t = piece(su, u, k0, w).coo;
      if (live != nullptr) t.values = *live;
      return t;
    };
    const auto kernel_csr = [&](int k) -> const CsrMatrix& {
      return k == k0 ? home.csr() : piece(su, u, k, w).csr;
    };
    switch (mode) {
      case Mode::SpMMA: {
        // S pieces (with values) and B blocks circulate; the A-shaped
        // partial stays put and is reduce-scattered along the fiber.
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/false, codec);
        ShiftChannel channels[] = {
            ring_channel(row_ring, v, kTagShift, /*mutates=*/false,
                         pack_triplets(home_triplets(), codec)),
            ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/false,
                         b0_block(su, k0, v, w, b), bcomp)};
        DenseMatrix partial(su.mq, su.rq);
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          comm.stats().add_flops(
              spmm_a(kernel_csr(k), channels[1].dense, partial));
        });
        reduce_partial(comm, su, u, v, w, partial, out.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        const auto [a_work, dots] =
            sddmm_pass(comm, su, u, v, w, a, b, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        std::vector<Scalar> vals(home.values().size());
        hadamard_values(home.values(), dots.values, vals);
        comm.stats().add_flops(vals.size());
        scatter_values(vals, piece(su, u, k0, w).entries, out.sddmm_values);
        return;
      }
      case Mode::SpMMB: {
        const auto a_work = replicate_a(comm, su, u, v, w, a, codec, cu);
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/true, codec);
        ShiftChannel channels[] = {
            ring_channel(row_ring, v, kTagShift, /*mutates=*/false,
                         pack_triplets(home_triplets(), codec)),
            ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/true,
                         DenseMatrix(su.nqc, su.rq), bcomp)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          comm.stats().add_flops(
              spmm_b(kernel_csr(k), *a_work, channels[1].dense));
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(out.dense, channels[1].dense, b_row0(su, k0, w),
                    static_cast<Index>(v) * su.rq);
        return;
      }
    }
    fail("2.5D-DenseRepl: unknown mode");
  }, rec.world_options());
}

void DenseRepl25D::do_run_fusedmm(const ExecContext& ctx,
                                  FusedOrientation orientation,
                                  Elision elision, const CooMatrix&,
                                  const DenseMatrix& a, const DenseMatrix& b,
                                  int repetitions, FusedResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const int q = grid_.q();
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    const ShardView home(piece(su, u, k0, w), rec.live(rank));
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: dots circulate with the S pieces, B input blocks
      // circulate on the column ring.
      const auto [a_work, dots] =
          sddmm_pass(comm, su, u, v, w, a, b, codec);
      // SpMM pass: the S pieces circulate carrying the SDDMM output.
      Triplets r_piece = piece(su, u, k0, w).coo;
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        hadamard_values(home.values(), dots.values, r_piece.values);
        comm.stats().add_flops(r_piece.size());
      }
      // Unelided sequence: the SpMM pass replicates A again (result
      // discarded — the gathered bits are unchanged).
      if (elision == Elision::None) replicate_a(comm, su, u, v, w, a, codec);
      ShiftChannel chs = ring_channel(row_ring, v, kTagShift,
                                      /*mutates=*/false,
                                      pack_triplets(r_piece, codec));
      if (orientation == FusedOrientation::A) {
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/false, codec);
        ShiftChannel channels[] = {
            std::move(chs),
            ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/false,
                         b0_block(su, k0, v, w, b), bcomp)};
        DenseMatrix partial(su.mq, su.rq);
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          const auto payload = unpack_triplets(channels[0].block, codec);
          comm.stats().add_flops(
              spmm_a(csr_with_values(piece(su, u, k, w).csr,
                                     payload.values),
                     channels[1].dense, partial));
        });
        reduce_partial(comm, su, u, v, w, partial, out.output, codec);
      } else {
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/true, codec);
        ShiftChannel channels[] = {
            std::move(chs),
            ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/true,
                         DenseMatrix(su.nqc, su.rq), bcomp)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          const auto payload = unpack_triplets(channels[0].block, codec);
          comm.stats().add_flops(
              spmm_b(csr_with_values(piece(su, u, k, w).csr,
                                     payload.values),
                     *a_work, channels[1].dense));
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(out.output, channels[1].dense, b_row0(su, k0, w),
                    static_cast<Index>(v) * su.rq);
      }
    }
  }, rec.world_options());
}

// -------------------------------------------------------- sparse replicate

class SparseRepl25D final : public DistAlgorithm {
 public:
  SparseRepl25D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::SparseRepl25D, p, c, options),
        grid_(p, c) {}

  std::shared_ptr<const PlanData> make_plan_data(const CooMatrix& s,
                                                 Index r) const override {
    return freeze_setup(make_setup(s, r));
  }

 protected:
  void do_run_kernel(const ExecContext& ctx, Mode mode, const CooMatrix& s,
                     const DenseMatrix& a, const DenseMatrix& b,
                     KernelResult& out) const override;
  void do_run_fusedmm(const ExecContext& ctx, FusedOrientation orientation,
                      Elision elision, const CooMatrix& s,
                      const DenseMatrix& a, const DenseMatrix& b,
                      int repetitions, FusedResult& out) const override;

 private:
  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index mq = 0;  ///< cell height m / q
    Index nq = 0;  ///< cell width n / q
    Index rqc = 0; ///< width slice r / (qc)
    /// Cell (u, v), shared by its c fiber ranks.
    std::vector<SparseShard> cells;
    /// Per cell: value ownership boundaries across the fiber (c + 1
    /// monotone offsets into the cell's entry range).
    std::vector<std::vector<Index>> value_split;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    su.mq = su.m / q;
    su.nq = su.n / q;
    su.rqc = su.r / (static_cast<Index>(q) * c());
    su.cells = shard_coo(
        s, q * q,
        [&](Index row, Index col) {
          return static_cast<int>(row / su.mq) * q +
                 static_cast<int>(col / su.nq);
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row % su.mq, col % su.nq);
        },
        [&](int) { return std::pair<Index, Index>(su.mq, su.nq); });
    su.value_split.reserve(su.cells.size());
    for (const auto& cell : su.cells) {
      su.value_split.push_back(partition_uniform(
          static_cast<Index>(cell.coo.size()), c()));
    }
    return su;
  }

  const SparseShard& cell(const Setup& su, int u, int v) const {
    return su.cells[static_cast<std::size_t>(u * grid_.q() + v)];
  }

  /// The skewed width-slice index resident on rank (u, v, w) at step t.
  Index slice_at(int u, int v, int w, int t) const {
    return static_cast<Index>(((u + v + t) % grid_.q()) * c() + w);
  }

  /// Support wire schedules of the circulating dense slices (inactive
  /// under Dense propagation). The A slices ride the row ring of
  /// (u, *, w): the consumer at step t of the slice originating at ring
  /// position o sits at position (o - t) mod q and touches exactly the
  /// ROW support of its stationary cell (u, ·). Symmetrically the B
  /// slices ride the column ring of (*, v, w) against the cells'
  /// COLUMN supports. Both directions cover the read-only inputs and
  /// the circulating SpMM accumulators (same supports, prefix unions).
  ShiftCompression a_compression(const Setup& su, int u, int v,
                                 bool mutates,
                                 const WireCodec& codec) const {
    const int q = grid_.q();
    return make_ring_compression(
        options().propagation, su.mq, su.rqc, q, v, mutates,
        [this, &su, u, q](int origin,
                          int step) -> std::span<const Index> {
          const int consumer = ((origin - step) % q + q) % q;
          return cell(su, u, consumer).row_support;
        },
        codec);
  }
  ShiftCompression b_compression(const Setup& su, int u, int v,
                                 bool mutates,
                                 const WireCodec& codec) const {
    const int q = grid_.q();
    return make_ring_compression(
        options().propagation, su.nq, su.rqc, q, u, mutates,
        [this, &su, v, q](int origin,
                          int step) -> std::span<const Index> {
          const int consumer = ((origin - step) % q + q) % q;
          return cell(su, consumer, v).col_support;
        },
        codec);
  }

  /// All-gather the cell's canonically split values along the fiber,
  /// this rank contributing `slice` (see value_slice), into `full`;
  /// returns the full value vector (cost: (c-1)/c * cell_nnz words). A
  /// one-rank fiber is the rank itself: its slice is the whole cell, so
  /// it gathers nothing and returns `slice`.
  /// The replication traffic of this family is already sparsity-sized
  /// (values and dot buffers, no dense row blocks), so the
  /// options().replication knob has nothing to elide here: Auto behaves
  /// exactly like Dense. The PROPAGATION knob, by contrast, bites twice
  /// in this family: both circulating dense slices compress against the
  /// stationary cells' supports (A by rows, B by columns) — see
  /// a_compression / b_compression below.
  std::span<const Scalar> gather_values(Comm& comm, const Setup& su, int u,
                                        int v, std::span<const Scalar> slice,
                                        const WireCodec& codec,
                                        std::vector<Scalar>& full) const {
    if (c() == 1) return slice;
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    const auto& split = su.value_split[static_cast<std::size_t>(
        u * grid_.q() + v)];
    // Low-precision payloads pad each member's last word, so the gathered
    // stream is decoded member by member against the canonical split
    // (the counts travel out of band with the plan).
    std::vector<std::size_t> offsets;
    const auto words =
        fiber.allgather_words(pack_values(slice, codec), &offsets);
    full.clear();
    full.reserve(cell(su, u, v).coo.size());
    for (int i = 0; i < c(); ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const MessageWords chunk(
          words.begin() + static_cast<std::ptrdiff_t>(offsets[ii]),
          words.begin() + static_cast<std::ptrdiff_t>(offsets[ii + 1]));
      const auto vals = unpack_values(
          chunk, static_cast<std::int64_t>(split[ii + 1] - split[ii]),
          codec);
      full.insert(full.end(), vals.begin(), vals.end());
    }
    return full;
  }

  /// The rank's canonical value_split[w] slice of cell (u, v) — its
  /// stationary shard — as the kernels read it: the recovery store's
  /// live copy when `live` is set, else the planned values.
  std::span<const Scalar> value_slice(
      const Setup& su, int u, int v, int w,
      const std::vector<Scalar>* live = nullptr) const {
    if (live != nullptr) return *live;
    const auto& split = su.value_split[static_cast<std::size_t>(
        u * grid_.q() + v)];
    const auto begin = split[static_cast<std::size_t>(w)];
    return std::span<const Scalar>(cell(su, u, v).coo.values)
        .subspan(static_cast<std::size_t>(begin),
                 static_cast<std::size_t>(
                     split[static_cast<std::size_t>(w) + 1] - begin));
  }

  /// The rank's stationary shard: its value slice, which every
  /// gather_values call replicates across the c fiber ranks, so the
  /// fiber peers are where a crashed slice is rebuilt from. A c = 1
  /// fiber has no peer; its crashes restore the checkpoint.
  StationaryShard shard(const Setup& su, int rank) const {
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto slice = value_slice(su, u, v, w);
    StationaryShard out{{slice.begin(), slice.end()}, {}};
    for (const int m : grid_.fiber_members(u, v)) {
      if (m != rank) out.peers.push_back(m);
    }
    return out;
  }

  /// The A (B) width slice resident on rank (u, v, w) at step 0.
  DenseMatrix a0_slice(const Setup& su, int u, int v, int w,
                       const DenseMatrix& a) const {
    return dense_block(a, static_cast<Index>(u) * su.mq, su.mq,
                       slice_at(u, v, w, 0) * su.rqc, su.rqc);
  }
  DenseMatrix b0_slice(const Setup& su, int u, int v, int w,
                       const DenseMatrix& b) const {
    return dense_block(b, static_cast<Index>(v) * su.nq, su.nq,
                       slice_at(u, v, w, 0) * su.rqc, su.rqc);
  }

  /// The SDDMM dot loop: both dense slices circulate while the cell's
  /// dot buffer stays put, then one fiber all-reduce sums the c ranks'
  /// width-slice partials (a one-rank fiber's buffer is returned as is).
  /// Returns the cell's full dot products.
  std::vector<Scalar> cell_dots(Comm& comm, const Setup& su, int u, int v,
                                int w, const DenseMatrix& a,
                                const DenseMatrix& b,
                                const WireCodec& codec) const {
    const auto& sc = cell(su, u, v);
    std::vector<Scalar> dots(sc.coo.size(), Scalar{0});
    const ShiftCompression acomp =
        a_compression(su, u, v, /*mutates=*/false, codec);
    const ShiftCompression bcomp =
        b_compression(su, u, v, /*mutates=*/false, codec);
    ShiftChannel channels[] = {
        ring_channel(grid_.row_members(u, w), v, kTagShift,
                     /*mutates=*/false, a0_slice(su, u, v, w, a), acomp),
        ring_channel(grid_.col_members(v, w), u, kTagShiftDense,
                     /*mutates=*/false, b0_slice(su, u, v, w, b), bcomp)};
    run_shift_loop(comm, options().schedule, grid_.q(), channels, [&](int) {
      comm.stats().add_flops(masked_dot_products(
          sc.csr, channels[0].dense, channels[1].dense, dots));
    });
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    return fiber.allreduce(std::move(dots));
  }

  /// SpMMA pass over the stationary cell `csr`: the B slices circulate
  /// alongside the circulating A-shaped accumulators, which land home
  /// after q steps and are placed into the output.
  void spmma_pass(Comm& comm, const Setup& su, int u, int v, int w,
                  const CsrMatrix& csr, const DenseMatrix& b,
                  DenseMatrix& out, const WireCodec& codec) const {
    const ShiftCompression acomp =
        a_compression(su, u, v, /*mutates=*/true, codec);
    const ShiftCompression bcomp =
        b_compression(su, u, v, /*mutates=*/false, codec);
    ShiftChannel channels[] = {
        ring_channel(grid_.row_members(u, w), v, kTagShift,
                     /*mutates=*/true, DenseMatrix(su.mq, su.rqc), acomp),
        ring_channel(grid_.col_members(v, w), u, kTagShiftDense,
                     /*mutates=*/false, b0_slice(su, u, v, w, b), bcomp)};
    run_shift_loop(comm, options().schedule, grid_.q(), channels, [&](int) {
      comm.stats().add_flops(
          spmm_a(csr, channels[1].dense, channels[0].dense));
    });
    PhaseScope scope(comm.stats(), Phase::Computation);
    place_block(out, channels[0].dense, static_cast<Index>(u) * su.mq,
                slice_at(u, v, w, 0) * su.rqc);
  }

  /// SpMMB pass, the mirror image: A slices circulate alongside the
  /// circulating B-shaped accumulators.
  void spmmb_pass(Comm& comm, const Setup& su, int u, int v, int w,
                  const CsrMatrix& csr, const DenseMatrix& a,
                  DenseMatrix& out, const WireCodec& codec) const {
    const ShiftCompression acomp =
        a_compression(su, u, v, /*mutates=*/false, codec);
    const ShiftCompression bcomp =
        b_compression(su, u, v, /*mutates=*/true, codec);
    ShiftChannel channels[] = {
        ring_channel(grid_.row_members(u, w), v, kTagShift,
                     /*mutates=*/false, a0_slice(su, u, v, w, a), acomp),
        ring_channel(grid_.col_members(v, w), u, kTagShiftDense,
                     /*mutates=*/true, DenseMatrix(su.nq, su.rqc), bcomp)};
    run_shift_loop(comm, options().schedule, grid_.q(), channels, [&](int) {
      comm.stats().add_flops(
          spmm_b(csr, channels[0].dense, channels[1].dense));
    });
    PhaseScope scope(comm.stats(), Phase::Computation);
    place_block(out, channels[1].dense, static_cast<Index>(v) * su.nq,
                slice_at(u, v, w, 0) * su.rqc);
  }

  Grid25D grid_;
};

void SparseRepl25D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                  const CooMatrix&, const DenseMatrix& a,
                                  const DenseMatrix& b,
                                  KernelResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto& sc = cell(su, u, v);
    // The cell's values are canonically split across the fiber; every
    // kernel starts by assembling the full value vector.
    std::vector<Scalar> gathered;
    const auto values_full =
        gather_values(comm, su, u, v, value_slice(su, u, v, w, rec.live(rank)),
                      codec, gathered);
    switch (mode) {
      case Mode::SDDMM: {
        const auto dots_full = cell_dots(comm, su, u, v, w, a, b, codec);
        // Each fiber rank finalizes its canonical value range.
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto& split = su.value_split[static_cast<std::size_t>(
            u * grid_.q() + v)];
        for (Index k = split[static_cast<std::size_t>(w)];
             k < split[static_cast<std::size_t>(w) + 1]; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          out.sddmm_values[static_cast<std::size_t>(sc.entries[kk])] =
              values_full[kk] * dots_full[kk];
        }
        comm.stats().add_flops(sc.nnz() / std::max(1, c()));
        return;
      }
      case Mode::SpMMA: {
        spmma_pass(comm, su, u, v, w, csr_with_values(sc.csr, values_full),
                   b, out.dense, codec);
        return;
      }
      case Mode::SpMMB: {
        spmmb_pass(comm, su, u, v, w, csr_with_values(sc.csr, values_full),
                   a, out.dense, codec);
        return;
      }
    }
    fail("2.5D-SparseRepl: unknown mode");
  }, rec.world_options());
}

void SparseRepl25D::do_run_fusedmm(const ExecContext& ctx,
                                   FusedOrientation orientation, Elision,
                                   const CooMatrix&, const DenseMatrix& a,
                                   const DenseMatrix& b, int repetitions,
                                   FusedResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto& sc = cell(su, u, v);
    const auto slice = value_slice(su, u, v, w, rec.live(rank));
    std::vector<Scalar> gathered;
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: both dense slices circulate, the dot buffer stays.
      const auto values_full =
          gather_values(comm, su, u, v, slice, codec, gathered);
      const auto dots_full = cell_dots(comm, su, u, v, w, a, b, codec);
      std::vector<Scalar> r_values(sc.coo.size());
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        hadamard_values(values_full, dots_full, r_values);
        comm.stats().add_flops(sc.nnz());
      }
      // SpMM pass: the input slices circulate again, now alongside the
      // circulating output accumulators.
      const auto r_csr = csr_with_values(sc.csr, r_values);
      if (orientation == FusedOrientation::A) {
        spmma_pass(comm, su, u, v, w, r_csr, b, out.output, codec);
      } else {
        spmmb_pass(comm, su, u, v, w, r_csr, a, out.output, codec);
      }
    }
  }, rec.world_options());
}

} // namespace

std::unique_ptr<DistAlgorithm> make_dense_repl_25d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<DenseRepl25D>(p, c, options);
}

std::unique_ptr<DistAlgorithm> make_sparse_repl_25d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<SparseRepl25D>(p, c, options);
}

} // namespace dsk::detail
