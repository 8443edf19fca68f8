/// \file algorithm_15d.cpp
/// The 1.5D algorithm family (paper Algorithm 1 and its sparse-shifting
/// sibling) on the p/c x c grid of dist/grid.hpp.
///
/// Dense shifting: A lives in m/p block rows and is replicated along
/// fibers (all-gather) or reduced back (reduce-scatter); B lives in n/p
/// block rows that shift cyclically inside each layer. Every rank owns
/// the S block crossing its layer-row of A and its layer's column group.
///
/// Sparse shifting: the dense matrices stay put, split into m/c (n/c)
/// row blocks by layer and r/(p/c) width slices by layer position; the
/// S blocks circulate as COO triplets, SDDMM dot products accumulating
/// in the circulating payload one width-slice at a time until the block
/// returns home (paper Section IV-A).

#include <memory>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/families.hpp"
#include "dist/grid.hpp"
#include "dist/replication_cache.hpp"
#include "dist/problem.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "local/fused.hpp"
#include "runtime/collectives.hpp"
#include "runtime/world.hpp"

namespace dsk::detail {
namespace {

// ------------------------------------------------------------- dense shift

class DenseShift15D final : public DistAlgorithm {
 public:
  DenseShift15D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::DenseShift15D, p, c, options),
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
    Index mL = 0;    ///< layer-row height m / L
    Index a_blk = 0; ///< canonical A block height m / p
    Index b_blk = 0; ///< shifting B block height n / p
    Index ncg = 0;   ///< layer column-group width n / c
    /// Piece (rank, j): rank's S sub-block meeting shifted B block j.
    std::vector<SparseShard> pieces;
    /// Row support of rank (u, v)'s mL-row working block (union over its
    /// L pieces), stored at u*c + v so each fiber's c member supports are
    /// contiguous — the wants table of the row-sparse collectives.
    std::vector<std::vector<Index>> support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    su.mL = su.m / L;
    su.a_blk = su.m / p();
    su.b_blk = su.n / p();
    su.ncg = su.n / c();
    su.pieces = shard_coo(
        s, p() * L,
        [&](Index row, Index col) {
          const int u = static_cast<int>(row / su.mL);
          const int v = static_cast<int>(col / su.ncg);
          const int j = static_cast<int>((col - v * su.ncg) / su.b_blk);
          return grid_.rank_of(u, v) * L + j;
        },
        [&](Index row, Index col) {
          const Index j = (col % su.ncg) / su.b_blk;
          const Index v = col / su.ncg;
          return std::pair<Index, Index>(
              row % su.mL, col - v * su.ncg - j * su.b_blk);
        },
        [&](int) { return std::pair<Index, Index>(su.mL, su.b_blk); });
    // Sized even in Dense mode (fiber_wants hands out spans into it);
    // the unions are only needed — and only computed — when the
    // row-sparse collectives may run.
    su.support.assign(static_cast<std::size_t>(p()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int u = 0; u < L; ++u) {
        for (int v = 0; v < c(); ++v) {
          std::vector<const SparseShard*> mine;
          for (int j = 0; j < L; ++j) {
            mine.push_back(&piece(su, grid_.rank_of(u, v), j));
          }
          su.support[static_cast<std::size_t>(u * c() + v)] =
              union_row_support(mine, su.mL);
        }
      }
    }
    return su;
  }

  /// The c member supports of fiber u, in fiber-position (v) order.
  std::span<const std::vector<Index>> fiber_wants(const Setup& su,
                                                 int u) const {
    return {su.support.data() + static_cast<std::size_t>(u) *
                                    static_cast<std::size_t>(c()),
            static_cast<std::size_t>(c())};
  }

  const SparseShard& piece(const Setup& su, int rank, int j) const {
    return su.pieces[static_cast<std::size_t>(rank * grid_.layer_size() +
                                              j)];
  }

  /// Global row of the B block shifting through layer v as ring index j.
  Index b_row0(const Setup& su, int v, int j) const {
    return (static_cast<Index>(v) * grid_.layer_size() + j) * su.b_blk;
  }

  /// Fiber all-gather of the rank's canonical A block — read in place
  /// from A — into its full layer-row of A (row-sparse per
  /// options().replication: only rows the fiber members' pieces touch
  /// need to travel). On a cache-hit run the parked working block itself
  /// comes back with zero replication traffic; on a miss run the
  /// gathered block is parked (shared, not copied) for the next call.
  std::shared_ptr<const DenseMatrix> replicate_a(
      Comm& comm, const Setup& su, int u, int v, const DenseMatrix& a,
      const WireCodec& codec, const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    const Index row0 = (static_cast<Index>(u) * c() + v) * su.a_blk;
    auto out = std::make_shared<const DenseMatrix>(
        fiber.allgatherv_rows(a, row0, su.a_blk, fiber_wants(su, u),
                              options().replication, codec));
    if (cu.cache != nullptr) cu.cache->store(comm.rank(), out);
    return out;
  }

  /// Fiber reduce-scatter of the rank's layer-row partial; writes the
  /// rank's m/p output chunk.
  void reduce_partial(Comm& comm, const Setup& su, int u, int v,
                      const DenseMatrix& partial, DenseMatrix& out,
                      const WireCodec& codec) const {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    auto chunk = fiber.reduce_scatter_rows(partial, fiber_wants(su, u),
                                           options().replication, codec);
    place_block(out, chunk,
                static_cast<Index>(u) * su.mL + v * su.a_blk, 0);
  }

  /// Column-support wire schedules of layer v's circulating B payloads
  /// (inactive under Dense propagation, free to attach): block j's
  /// consumer at step t is the rank at layer position (j - t) mod L,
  /// touching exactly the rows in its piece-j column support.
  ShiftCompression b_compression(const Setup& su, int u, int v,
                                 bool mutates,
                                 const WireCodec& codec) const {
    const int L = grid_.layer_size();
    return make_ring_compression(
        options().propagation, su.b_blk, su.r, L, u, mutates,
        [this, &su, v, L](int origin, int step) -> std::span<const Index> {
          const int consumer = ((origin - step) % L + L) % L;
          return piece(su, grid_.rank_of(consumer, v), origin).col_support;
        },
        codec);
  }

  /// Circulate the layer's B blocks (or B-shaped accumulators) for L
  /// steps; body(j, resident) sees ring index j and reads — or, when
  /// mutates is set, updates — the resident block in place. Returns the
  /// final resident block — after the full ring trip that is the home
  /// block again, which the accumulator (mutating) loops write to the
  /// output.
  DenseMatrix b_loop(Comm& comm, const Setup& su, int u, int v,
                     bool mutates, DenseMatrix start,
                     const std::function<void(int, DenseMatrix&)>& body,
                     const WireCodec& codec) const {
    const int L = grid_.layer_size();
    const auto layer = grid_.layer_members(v);
    const ShiftCompression comp = b_compression(su, u, v, mutates, codec);
    ShiftChannel ch = ring_channel(layer, u, kTagShift, mutates,
                                   std::move(start), comp);
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, [&](int t) {
      body((u + t) % L, ch.dense);
    });
    return std::move(ch.dense);
  }

  /// The B block resident on rank (u, v) at step 0, copied out of B.
  DenseMatrix home_b(const Setup& su, int u, int v,
                     const DenseMatrix& b) const {
    return b.row_block(b_row0(su, v, u), b_row0(su, v, u) + su.b_blk);
  }

  /// Where the rank's pieces sit in its flat value vectors (the
  /// checkpointed shard, the SDDMM dots and outputs), which concatenate
  /// the L pieces in ring-index order: piece j spans [off[j], off[j+1]).
  std::vector<std::size_t> piece_offsets(const Setup& su, int rank) const {
    std::vector<std::size_t> off{0};
    for (int j = 0; j < grid_.layer_size(); ++j) {
      off.push_back(off.back() + piece(su, rank, j).coo.size());
    }
    return off;
  }

  /// The rank's stationary shard: its L piece value slices, flat. The
  /// 1.5D family holds no replicas, so it names no peers and a crash
  /// restores the checkpoint, then the whole call re-runs.
  StationaryShard shard(const Setup& su, int rank) const {
    StationaryShard out;
    for (int j = 0; j < grid_.layer_size(); ++j) {
      const auto& v = piece(su, rank, j).coo.values;
      out.values.insert(out.values.end(), v.begin(), v.end());
    }
    return out;
  }

  /// The rank's L pieces carrying `values` — flat as piece_offsets — or
  /// their planned values when `values` is null.
  std::vector<ShardView> pieces_with(const Setup& su, int rank,
                                     const std::vector<Scalar>* values) const {
    std::vector<ShardView> out;
    std::size_t off = 0;
    for (int j = 0; j < grid_.layer_size(); ++j) {
      const auto& pc = piece(su, rank, j);
      out.emplace_back(pc, values, off);
      off += pc.coo.size();
    }
    return out;
  }

  /// Replicate A into the rank's working layer-row and run the SDDMM dot
  /// loop (B input blocks circulate). Returns the working block and the
  /// dot products of the rank's L pieces, flat as piece_offsets.
  std::pair<std::shared_ptr<const DenseMatrix>, std::vector<Scalar>>
  replicate_and_dots(Comm& comm, const Setup& su, int rank, int u, int v,
                     const DenseMatrix& a, const DenseMatrix& b,
                     const WireCodec& codec,
                     const CacheUse& cu = {}) const {
    auto a_work = replicate_a(comm, su, u, v, a, codec, cu);
    const auto off = piece_offsets(su, rank);
    std::vector<Scalar> dots(off.back(), Scalar{0});
    const auto body = [&](int j, DenseMatrix& bj) {
      const auto jj = static_cast<std::size_t>(j);
      comm.stats().add_flops(masked_dot_products(
          piece(su, rank, j).csr, *a_work, bj,
          std::span<Scalar>(dots).subspan(off[jj], off[jj + 1] - off[jj])));
    };
    b_loop(comm, su, u, v, /*mutates=*/false, home_b(su, u, v, b), body,
           codec);
    return {std::move(a_work), std::move(dots)};
  }

  /// The SDDMM outputs of the rank's pieces (their values times their
  /// dots), flat as piece_offsets.
  std::vector<Scalar> hadamard(Comm& comm, std::span<const ShardView> mine,
                               const std::vector<Scalar>& dots) const {
    PhaseScope scope(comm.stats(), Phase::Computation);
    std::vector<Scalar> out(dots.size());
    std::size_t off = 0;
    for (const ShardView& pc : mine) {
      const std::size_t count = pc.values().size();
      hadamard_values(pc.values(),
                      std::span<const Scalar>(dots).subspan(off, count),
                      std::span<Scalar>(out).subspan(off, count));
      off += count;
    }
    comm.stats().add_flops(out.size());
    return out;
  }

  /// SpMMA propagation AND reduction: accumulate the layer-row partial
  /// of the pieces `mine` from circulating B blocks, then fiber
  /// reduce-scatter it into the rank's output chunk.
  void spmma_pass(Comm& comm, const Setup& su, int u, int v,
                  const DenseMatrix& b, std::span<const ShardView> mine,
                  DenseMatrix& out, const WireCodec& codec) const {
    DenseMatrix partial(su.mL, su.r);
    b_loop(comm, su, u, v, /*mutates=*/false, home_b(su, u, v, b),
           [&](int j, DenseMatrix& bj) {
             comm.stats().add_flops(spmm_a(
                 mine[static_cast<std::size_t>(j)].csr(), bj, partial));
           },
           codec);
    reduce_partial(comm, su, u, v, partial, out, codec);
  }

  /// SpMMB propagation: accumulate the pieces `mine` against the
  /// replicated A into circulating B-shaped blocks, and place the home
  /// block that returns after the full ring trip.
  void spmmb_pass(Comm& comm, const Setup& su, int u, int v,
                  const DenseMatrix& a_work, std::span<const ShardView> mine,
                  DenseMatrix& out, const WireCodec& codec) const {
    const auto home = b_loop(
        comm, su, u, v, /*mutates=*/true, DenseMatrix(su.b_blk, su.r),
        [&](int j, DenseMatrix& acc) {
          comm.stats().add_flops(
              spmm_b(mine[static_cast<std::size_t>(j)].csr(), a_work, acc));
        },
        codec);
    PhaseScope scope(comm.stats(), Phase::Computation);
    place_block(out, home, b_row0(su, v, u), 0);
  }

  Grid15D grid_;
};

void DenseShift15D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                  const CooMatrix&, const DenseMatrix& a,
                                  const DenseMatrix& b,
                                  KernelResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  // SpMMA never replicates A (its replication phase is the output
  // reduce-scatter), so only the A-consuming modes consult the cache.
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto mine = pieces_with(su, rank, rec.live(rank));
    switch (mode) {
      case Mode::SpMMA: {
        spmma_pass(comm, su, u, v, b, mine, out.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        const auto [a_work, dots] =
            replicate_and_dots(comm, su, rank, u, v, a, b, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto vals = hadamard(comm, mine, dots);
        const auto off = piece_offsets(su, rank);
        for (int j = 0; j < grid_.layer_size(); ++j) {
          const auto jj = static_cast<std::size_t>(j);
          scatter_values(std::span<const Scalar>(vals).subspan(
                             off[jj], off[jj + 1] - off[jj]),
                         piece(su, rank, j).entries, out.sddmm_values);
        }
        return;
      }
      case Mode::SpMMB: {
        const auto a_work = replicate_a(comm, su, u, v, a, codec, cu);
        spmmb_pass(comm, su, u, v, *a_work, mine, out.dense, codec);
        return;
      }
    }
    fail("1.5D-DenseShift: unknown mode");
  }, rec.world_options());
}

void DenseShift15D::do_run_fusedmm(const ExecContext& ctx,
                                   FusedOrientation orientation,
                                   Elision elision, const CooMatrix& s,
                                   const DenseMatrix& a, const DenseMatrix& b,
                                   int repetitions, FusedResult& out) const {
  if (orientation == FusedOrientation::B &&
      elision == Elision::LocalKernelFusion) {
    // The fused local kernel co-locates full rows of the OUTPUT-side
    // matrix; for a B-shaped output that is the transposed problem:
    // FusedMMB(S, A, B) = FusedMMA(S^T, B, A). The transposed problem
    // needs its own setup snapshot (the caller's plan describes s, not
    // s^T), built here per call and reported as this call's setup build.
    Timer timer;
    auto st = s.transposed();
    st.sort_and_combine();
    const auto tplan = make_plan_data(st, b.cols());
    const double setup_seconds = timer.seconds();
    ExecContext tctx = ctx;
    tctx.plan = tplan.get();
    do_run_fusedmm(tctx, FusedOrientation::A, elision, st, b, a, repetitions,
                   out);
    out.stats.add_setup(1, setup_seconds);
    return;
  }
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto mine = pieces_with(su, rank, rec.live(rank));
    for (int rep = 0; rep < repetitions; ++rep) {
      if (elision == Elision::LocalKernelFusion) {
        // Single propagation loop with the fused local kernel.
        const auto fused_a = replicate_a(comm, su, u, v, a, codec);
        DenseMatrix partial(su.mL, su.r);
        b_loop(comm, su, u, v, /*mutates=*/false, home_b(su, u, v, b),
               [&](int j, DenseMatrix& bj) {
                 comm.stats().add_flops(
                     fusedmm_a(mine[static_cast<std::size_t>(j)].csr(),
                               *fused_a, bj, partial));
               },
               codec);
        reduce_partial(comm, su, u, v, partial, out.output, codec);
        continue;
      }
      // SDDMM pass, then the SpMM pass on its output values.
      const auto [a_work, dots] =
          replicate_and_dots(comm, su, rank, u, v, a, b, codec);
      const auto r_values = hadamard(comm, mine, dots);
      const auto r_pieces = pieces_with(su, rank, &r_values);
      if (orientation == FusedOrientation::A) {
        spmma_pass(comm, su, u, v, b, r_pieces, out.output, codec);
      } else {
        // Unelided sequence: the SpMM pass replicates A again instead
        // of reusing the SDDMM pass's copy (the gathered bits are the
        // same, so the repeat's result is discarded).
        if (elision == Elision::None) replicate_a(comm, su, u, v, a, codec);
        spmmb_pass(comm, su, u, v, *a_work, r_pieces, out.output, codec);
      }
    }
  }, rec.world_options());
}

// ------------------------------------------------------------ sparse shift

class SparseShift15D final : public DistAlgorithm {
 public:
  SparseShift15D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::SparseShift15D, p, c, options),
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
    Index mc = 0;  ///< canonical A row-block height m / c
    Index mL = 0;  ///< piece row-block height m / L
    Index ncg = 0; ///< layer column-group width n / c
    Index rL = 0;  ///< width slice r / L
    /// Piece (v, j): layer v's S block of piece-row j (rows global,
    /// columns rebased to the layer's column group).
    std::vector<SparseShard> pieces;
    /// Global row support of layer v's column group (union over its L
    /// pieces) — every rank of layer v reads/writes exactly these rows
    /// of the replicated full-m slice, so entry v doubles as fiber
    /// position v's wants in the row-sparse collectives.
    std::vector<std::vector<Index>> layer_support;
  };

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    su.mc = su.m / c();
    su.mL = su.m / L;
    su.ncg = su.n / c();
    su.rL = su.r / L;
    su.pieces = shard_coo(
        s, c() * L,
        [&](Index row, Index col) {
          const int v = static_cast<int>(col / su.ncg);
          const int j = static_cast<int>(row / su.mL);
          return v * L + j;
        },
        [&](Index row, Index col) {
          return std::pair<Index, Index>(row, col % su.ncg);
        },
        [&](int) { return std::pair<Index, Index>(su.m, su.ncg); });
    su.layer_support.assign(static_cast<std::size_t>(c()), {});
    if (options().replication != ReplicationMode::Dense) {
      for (int v = 0; v < c(); ++v) {
        std::vector<const SparseShard*> mine;
        for (int j = 0; j < L; ++j) mine.push_back(&piece(su, v, j));
        su.layer_support[static_cast<std::size_t>(v)] =
            union_row_support(mine, su.m);
      }
    }
    return su;
  }

  const SparseShard& piece(const Setup& su, int v, int j) const {
    return su.pieces[static_cast<std::size_t>(v * grid_.layer_size() + j)];
  }

  /// The rank's stationary width-slice of the layer's B row block.
  DenseMatrix local_b(const Setup& su, int u, int v,
                      const DenseMatrix& b) const {
    return dense_block(b, static_cast<Index>(v) * (su.n / c()),
                       su.n / c(), static_cast<Index>(u) * su.rL, su.rL);
  }

  /// Fiber all-gather of the canonical A blocks into the full-m slice
  /// A[:, u-th width slice] (row-sparse per options().replication).
  /// Cache-hit runs return the parked slice itself with zero replication
  /// traffic; miss runs park the gathered slice (shared) for the next
  /// call.
  std::shared_ptr<const DenseMatrix> replicate_a(
      Comm& comm, const Setup& su, int u, int v, const DenseMatrix& a,
      const WireCodec& codec, const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    auto out = std::make_shared<const DenseMatrix>(fiber.allgatherv_rows(
        dense_block(a, static_cast<Index>(v) * su.mc, su.mc,
                    static_cast<Index>(u) * su.rL, su.rL),
        su.layer_support, options().replication, codec));
    if (cu.cache != nullptr) cu.cache->store(comm.rank(), out);
    return out;
  }

  /// Fiber reduce-scatter of the full-m SpMM-A partial slice; writes the
  /// rank's mc x rL chunk of the output.
  void reduce_partial(Comm& comm, const Setup& su, int u, int v,
                      const DenseMatrix& partial, DenseMatrix& out,
                      const WireCodec& codec) const {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    auto chunk = fiber.reduce_scatter_rows(partial, su.layer_support,
                                           options().replication, codec);
    place_block(out, chunk, static_cast<Index>(v) * su.mc,
                static_cast<Index>(u) * su.rL);
  }

  /// Circulate the layer's S pieces for L steps.
  void s_loop(Comm& comm, int u, int v, bool mutates,
              MessageWords start,
              const std::function<void(int, MessageWords&)>& body) const {
    const int L = grid_.layer_size();
    const auto layer = grid_.layer_members(v);
    ShiftChannel ch =
        ring_channel(layer, u, kTagShift, mutates, std::move(start));
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, [&](int t) {
      body((u + t) % L, ch.block);
    });
  }

  /// The rank's stationary shard: its home piece values (non-home pieces
  /// conceptually arrive via the ring payload from their own owners).
  /// The 1.5D family holds no replicas, so it names no peers and a crash
  /// restores the checkpoint, then the whole call re-runs.
  StationaryShard shard(const Setup& su, int rank) const {
    const auto& v = piece(su, grid_.v_of(rank), grid_.u_of(rank)).coo.values;
    return {{v.begin(), v.end()}, {}};
  }

  /// Replicate A and circulate the home piece's dot payload for L steps
  /// (the SDDMM pass shared by the kernel and FusedMM). Returns the
  /// replicated slice and the home piece's accumulated dot payload.
  std::pair<std::shared_ptr<const DenseMatrix>, Triplets> sddmm_pass(
      Comm& comm, const Setup& su, int u, int v, const DenseMatrix& a,
      const DenseMatrix& b_local, const WireCodec& codec,
      const CacheUse& cu = {}) const {
    const int L = grid_.layer_size();
    auto a_work = replicate_a(comm, su, u, v, a, codec, cu);
    Triplets start = piece(su, v, u).coo;
    start.values.assign(start.size(), Scalar{0});
    const auto layer = grid_.layer_members(v);
    ShiftChannel ch = ring_channel(layer, u, kTagShift, /*mutates=*/true,
                                   pack_triplets(start, codec));
    const auto body = [&](int t) {
      const int j = (u + t) % L;
      auto payload = unpack_triplets(ch.block, codec);
      comm.stats().add_flops(masked_dot_products(
          piece(su, v, j).csr, *a_work, b_local, payload.values));
      ch.block = pack_triplets(payload, codec);
    };
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, body);
    return {std::move(a_work), unpack_triplets(ch.block, codec)};
  }

  Grid15D grid_;
};

void SparseShift15D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                   const CooMatrix&, const DenseMatrix& a,
                                   const DenseMatrix& b,
                                   KernelResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  // SpMMA never replicates A (its replication phase is the output
  // reduce-scatter), so only the A-consuming modes consult the cache.
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto b_local = local_b(su, u, v, b);
    const ShardView home(piece(su, v, u), rec.live(rank));
    const auto kernel_csr = [&](int j) -> const CsrMatrix& {
      return j == u ? home.csr() : piece(su, v, j).csr;
    };
    switch (mode) {
      case Mode::SpMMA: {
        DenseMatrix partial(su.m, su.rL);
        s_loop(comm, u, v, /*mutates=*/false,
               pack_triplets(piece(su, v, u).coo, codec),
               [&](int j, MessageWords&) {
                 comm.stats().add_flops(
                     spmm_a(kernel_csr(j), b_local, partial));
               });
        reduce_partial(comm, su, u, v, partial, out.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        // After L shifts the resident payload is the home piece again,
        // its dot products accumulated over every width slice.
        const auto [a_work, dots] =
            sddmm_pass(comm, su, u, v, a, b_local, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        std::vector<Scalar> vals(home.values().size());
        hadamard_values(home.values(), dots.values, vals);
        comm.stats().add_flops(vals.size());
        scatter_values(vals, piece(su, v, u).entries, out.sddmm_values);
        return;
      }
      case Mode::SpMMB: {
        const auto a_work = replicate_a(comm, su, u, v, a, codec, cu);
        DenseMatrix b_out(su.n / c(), su.rL);
        s_loop(comm, u, v, /*mutates=*/false,
               pack_triplets(piece(su, v, u).coo, codec),
               [&](int j, MessageWords&) {
                 comm.stats().add_flops(
                     spmm_b(kernel_csr(j), *a_work, b_out));
               });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(out.dense, b_out, static_cast<Index>(v) * (su.n / c()),
                    static_cast<Index>(u) * su.rL);
        return;
      }
    }
    fail("1.5D-SparseShift: unknown mode");
  }, rec.world_options());
}

void SparseShift15D::do_run_fusedmm(const ExecContext& ctx,
                                    FusedOrientation orientation,
                                    Elision elision, const CooMatrix&,
                                    const DenseMatrix& a,
                                    const DenseMatrix& b, int repetitions,
                                    FusedResult& out) const {
  const auto& su = planned_setup<Setup>(ctx, kind());
  const WireCodec& codec = options().codec;
  Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
  out.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto b_local = local_b(su, u, v, b);
    const ShardView home(piece(su, v, u), rec.live(rank));
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: dot products circulate with the pieces.
      const auto [a_work, dots] =
          sddmm_pass(comm, su, u, v, a, b_local, codec);
      // SpMM pass: pieces circulate carrying the SDDMM output values.
      Triplets r_piece = piece(su, v, u).coo;
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        hadamard_values(home.values(), dots.values, r_piece.values);
        comm.stats().add_flops(r_piece.size());
      }
      if (orientation == FusedOrientation::A) {
        DenseMatrix partial(su.m, su.rL);
        s_loop(comm, u, v, /*mutates=*/false, pack_triplets(r_piece, codec),
               [&](int j, MessageWords& block) {
                 const auto payload = unpack_triplets(block, codec);
                 comm.stats().add_flops(spmm_a(
                     csr_with_values(piece(su, v, j).csr, payload.values),
                     b_local, partial));
               });
        reduce_partial(comm, su, u, v, partial, out.output, codec);
      } else {
        // Unelided sequence: the SpMM-B pass replicates A again instead
        // of reusing the SDDMM pass's copy (result discarded; orientation
        // A's SpMM pass never reads A, so it has nothing to
        // re-replicate).
        if (elision == Elision::None) replicate_a(comm, su, u, v, a, codec);
        DenseMatrix b_out(su.n / c(), su.rL);
        s_loop(comm, u, v, /*mutates=*/false, pack_triplets(r_piece, codec),
               [&](int j, MessageWords& block) {
                 const auto payload = unpack_triplets(block, codec);
                 comm.stats().add_flops(spmm_b(
                     csr_with_values(piece(su, v, j).csr, payload.values),
                     *a_work, b_out));
               });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(out.output, b_out, static_cast<Index>(v) * (su.n / c()),
                    static_cast<Index>(u) * su.rL);
      }
    }
  }, rec.world_options());
}

} // namespace

std::unique_ptr<DistAlgorithm> make_dense_shift_15d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<DenseShift15D>(p, c, options);
}

std::unique_ptr<DistAlgorithm> make_sparse_shift_15d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<SparseShift15D>(p, c, options);
}

} // namespace dsk::detail
