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

#include <optional>

#include "common/error.hpp"
#include "dist/families.hpp"
#include "dist/grid.hpp"
#include "dist/replication_cache.hpp"
#include "dist/problem.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "local/fused.hpp"
#include "runtime/checkpoint.hpp"
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

  bool supports(Elision) const override { return true; }

 protected:
  std::shared_ptr<const PlanData> do_make_plan(const CooMatrix& s,
                                               Index r) const override {
    return std::make_shared<Snapshot>(make_setup(s, r));
  }
  KernelResult do_run_kernel(const ExecContext& ctx, Mode mode,
                             const CooMatrix& s, const DenseMatrix& a,
                             const DenseMatrix& b) const override;
  FusedResult do_run_fusedmm(const ExecContext& ctx,
                             FusedOrientation orientation, Elision elision,
                             const CooMatrix& s, const DenseMatrix& a,
                             const DenseMatrix& b,
                             int repetitions) const override;

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

  struct Snapshot final : PlanData {
    explicit Snapshot(Setup setup) : su(std::move(setup)) {}
    Setup su;
  };

  const Setup& setup_of(const ExecContext& ctx) const {
    const auto* snap = dynamic_cast<const Snapshot*>(ctx.plan);
    check(snap != nullptr,
          "1.5D-DenseShift: ExecContext plan was not built by this driver");
    return snap->su;
  }

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % p() == 0 && su.n % p() == 0,
          "1.5D-DenseShift: m = ", su.m, ", n = ", su.n,
          " must be multiples of p = ", p(),
          "; call pad_problem first");
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

  /// Fiber all-gather of the rank's canonical A block into its full
  /// layer-row of A (row-sparse per options().replication: only rows the
  /// fiber members' pieces touch need to travel). On a cache-hit run the
  /// parked working block comes back with zero replication traffic; on a
  /// miss run the gathered block is parked for the next call.
  DenseMatrix replicate_a(Comm& comm, const Setup& su, int u, int v,
                          const DenseMatrix& a, const WireCodec& codec,
                          const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    const Index row0 = (static_cast<Index>(u) * c() + v) * su.a_blk;
    DenseMatrix out = fiber.allgatherv_rows(
        a.row_block(row0, row0 + su.a_blk), fiber_wants(su, u),
        options().replication, codec);
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
  /// steps; body(j, resident) sees ring index j and may rewrite the
  /// resident block when mutates is set. Returns the final resident
  /// block — after the full ring trip that is the home block again,
  /// which the accumulator (mutating) loops write to the output.
  MessageWords b_loop(Comm& comm, const Setup& su, int u, int v,
                      bool mutates, MessageWords start,
                      const std::function<void(int, MessageWords&)>& body,
                      const WireCodec& codec,
                      const ShiftJournalHooks* state = nullptr) const {
    const int L = grid_.layer_size();
    const auto layer = grid_.layer_members(v);
    ShiftChannel ch =
        ring_channel(layer, u, kTagShift, mutates, std::move(start));
    const ShiftCompression comp = b_compression(su, u, v, mutates, codec);
    ch.compression = &comp;
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, [&](int t) {
      body((u + t) % L, ch.block);
    }, state);
    return std::move(ch.block);
  }

  /// Concatenation of the rank's L piece value slices — the rank-local
  /// sparse memory the checkpoint store snapshots (the 1.5D family has
  /// no replicas; the checkpoint IS its redundancy).
  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    std::vector<Scalar> out;
    for (int j = 0; j < grid_.layer_size(); ++j) {
      const auto& v = piece(su, rank, j).coo.values;
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

  /// Split the rank's live checkpoint slice back into per-piece value
  /// vectors (empty when live is null — fault-free kernels read the
  /// setup tables directly).
  std::vector<std::vector<Scalar>> live_piece_values(
      const Setup& su, int rank, const std::vector<Scalar>* live) const {
    std::vector<std::vector<Scalar>> out;
    if (live == nullptr) return out;
    const int L = grid_.layer_size();
    out.resize(static_cast<std::size_t>(L));
    std::size_t off = 0;
    for (int j = 0; j < L; ++j) {
      const std::size_t count = piece(su, rank, j).coo.size();
      out[static_cast<std::size_t>(j)].assign(
          live->begin() + static_cast<std::ptrdiff_t>(off),
          live->begin() + static_cast<std::ptrdiff_t>(off + count));
      off += count;
    }
    return out;
  }

  /// Crash recovery for the unreplicated dense-shift family: snapshot
  /// every rank's piece values into the checkpoint store before the
  /// world runs; on_crash restores the scrubbed shard through the
  /// digest check and the journaled shift loops resume past the last
  /// jointly completed step.
  WorldOptions fault_options(const Setup& su,
                             std::optional<CheckpointStore>& ckpt) const {
    WorldOptions wo;
    wo.faults = options().faults;
    wo.max_recoveries = options().max_recoveries;
    wo.checkpoint_interval = options().checkpoint_interval;
    if (wo.faults == nullptr || !wo.faults->enabled() ||
        wo.faults->crashes.empty()) {
      return wo;
    }
    ckpt.emplace(p());
    for (int rank = 0; rank < p(); ++rank) {
      ckpt->save_shard(rank, shard_values(su, rank));
    }
    CheckpointStore* cp = &*ckpt;
    wo.on_crash = [cp](const CrashInfo& crash) {
      cp->scrub(crash.rank);
      cp->restore(crash.rank);
    };
    return wo;
  }

  /// Replicate A into the rank's working layer-row and run the SDDMM dot
  /// loop (B input blocks circulate). Returns the working block and
  /// dots[j] for the rank's L pieces.
  std::pair<DenseMatrix, std::vector<std::vector<Scalar>>>
  replicate_and_dots(Comm& comm, const Setup& su, int rank, int u, int v,
                     const DenseMatrix& a, const DenseMatrix& b,
                     const WireCodec& codec,
                     const CacheUse& cu = {}) const {
    const int L = grid_.layer_size();
    DenseMatrix a_work = replicate_a(comm, su, u, v, a, codec, cu);
    std::vector<std::vector<Scalar>> dots(static_cast<std::size_t>(L));
    const auto body = [&](int j, MessageWords& block) {
      const auto bj = unpack_dense(block, su.b_blk, su.r);
      const auto& pc = piece(su, rank, j);
      auto& d = dots[static_cast<std::size_t>(j)];
      d.assign(pc.coo.size(), Scalar{0});
      comm.stats().add_flops(masked_dot_products(pc.csr, a_work, bj, d));
    };
    // The per-piece dot vectors are stationary state (each dots[j] is
    // written wholly at step j); journal them so a recovered attempt
    // resumes with the completed pieces' dots intact.
    ShiftJournalHooks hooks;
    hooks.pack_state = [&] {
      MessageWords words;
      for (const auto& d : dots) {
        const MessageWords packed = pack_values(std::span<const Scalar>(d));
        words.push_back(packed.size());
        words.insert(words.end(), packed.begin(), packed.end());
      }
      return words;
    };
    hooks.unpack_state = [&](const MessageWords& words) {
      std::size_t off = 0;
      for (auto& d : dots) {
        const auto len = static_cast<std::size_t>(words[off++]);
        d = unpack_values(MessageWords(
            words.begin() + static_cast<std::ptrdiff_t>(off),
            words.begin() + static_cast<std::ptrdiff_t>(off + len)));
        off += len;
      }
    };
    b_loop(comm, su, u, v, /*mutates=*/false,
           pack_dense(b.row_block(b_row0(su, v, u),
                                  b_row0(su, v, u) + su.b_blk)),
           body, codec, &hooks);
    return {std::move(a_work), std::move(dots)};
  }

  /// SpMMA propagation AND reduction: accumulate the layer-row partial
  /// from circulating B blocks, then fiber reduce-scatter it into the
  /// rank's output chunk. values overridable for the FusedMM SpMM pass.
  void spmma_pass(Comm& comm, const Setup& su, int rank, int u, int v,
                  const DenseMatrix& b,
                  const std::vector<std::vector<Scalar>>* values,
                  DenseMatrix& out, const WireCodec& codec) const {
    const int L = grid_.layer_size();
    const auto layer = grid_.layer_members(v);
    DenseMatrix partial(su.mL, su.r);
    ShiftChannel ch = ring_channel(
        layer, u, kTagShift, /*mutates=*/false,
        pack_dense(b.row_block(b_row0(su, v, u),
                               b_row0(su, v, u) + su.b_blk)));
    const ShiftCompression comp =
        b_compression(su, u, v, /*mutates=*/false, codec);
    ch.compression = &comp;
    const auto body = [&](int t) {
      const int j = (u + t) % L;
      const auto bj = unpack_dense(ch.block, su.b_blk, su.r);
      const auto& pc = piece(su, rank, j);
      if (values == nullptr) {
        comm.stats().add_flops(spmm_a(pc.csr, bj, partial));
      } else {
        comm.stats().add_flops(spmm_a(
            csr_with_values(pc.csr,
                            (*values)[static_cast<std::size_t>(j)]),
            bj, partial));
      }
    };
    ShiftJournalHooks hooks;
    hooks.pack_state = [&] { return pack_dense(partial); };
    hooks.unpack_state = [&](const MessageWords& words) {
      partial = unpack_dense(words, su.mL, su.r);
    };
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, body, &hooks);
    reduce_partial(comm, su, u, v, partial, out, codec);
  }

  Grid15D grid_;
};

KernelResult DenseShift15D::do_run_kernel(const ExecContext& ctx,
                                          Mode mode, const CooMatrix& s,
                                          const DenseMatrix& a,
                                          const DenseMatrix& b) const {
  const Setup& su = setup_of(ctx);
  KernelResult result;
  if (mode == Mode::SpMMA) {
    result.dense = DenseMatrix(su.m, su.r);
  } else if (mode == Mode::SpMMB) {
    result.dense = DenseMatrix(su.n, su.r);
  } else {
    result.sddmm_values.assign(static_cast<std::size_t>(s.nnz()),
                               Scalar{0});
  }
  const int L = grid_.layer_size();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  // SpMMA never replicates A (its replication phase is the output
  // reduce-scatter), so only the A-consuming modes consult the cache.
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    // Fault mode reads the rank's piece values through the checkpoint
    // store's live copy instead of the shared setup table.
    const std::vector<Scalar>* live = ckpt ? &ckpt->values(rank) : nullptr;
    const auto live_vals = live_piece_values(su, rank, live);
    const auto* vals = live != nullptr ? &live_vals : nullptr;
    std::vector<CsrMatrix> live_csr;
    if (vals != nullptr) {
      for (int j = 0; j < L; ++j) {
        live_csr.push_back(csr_with_values(
            piece(su, rank, j).csr, (*vals)[static_cast<std::size_t>(j)]));
      }
    }
    const auto kernel_csr = [&](int j) -> const CsrMatrix& {
      return vals != nullptr ? live_csr[static_cast<std::size_t>(j)]
                             : piece(su, rank, j).csr;
    };
    switch (mode) {
      case Mode::SpMMA: {
        spmma_pass(comm, su, rank, u, v, b, vals, result.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        const auto [a_work, dots] =
            replicate_and_dots(comm, su, rank, u, v, a, b, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        for (int j = 0; j < L; ++j) {
          const auto& pc = piece(su, rank, j);
          std::vector<Scalar> vals_j(pc.coo.size());
          hadamard_values(vals != nullptr
                              ? (*vals)[static_cast<std::size_t>(j)]
                              : pc.coo.values,
                          dots[static_cast<std::size_t>(j)], vals_j);
          comm.stats().add_flops(pc.nnz());
          scatter_values(vals_j, pc.entries, result.sddmm_values);
        }
        return;
      }
      case Mode::SpMMB: {
        const DenseMatrix a_work = replicate_a(comm, su, u, v, a, codec, cu);
        const auto home = b_loop(
            comm, su, u, v, /*mutates=*/true,
            pack_dense(DenseMatrix(su.b_blk, su.r)),
            [&](int j, MessageWords& block) {
              auto acc = unpack_dense(block, su.b_blk, su.r);
              comm.stats().add_flops(spmm_b(kernel_csr(j), a_work, acc));
              block = pack_dense(acc);
            },
            codec);
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.dense, unpack_dense(home, su.b_blk, su.r),
                    b_row0(su, v, u), 0);
        return;
      }
    }
    fail("1.5D-DenseShift: unknown mode");
  }, wo);
  return result;
}

FusedResult DenseShift15D::do_run_fusedmm(const ExecContext& ctx,
                                          FusedOrientation orientation,
                                          Elision elision,
                                          const CooMatrix& s,
                                          const DenseMatrix& a,
                                          const DenseMatrix& b,
                                          int repetitions) const {
  if (orientation == FusedOrientation::B &&
      elision == Elision::LocalKernelFusion) {
    // The fused local kernel co-locates full rows of the OUTPUT-side
    // matrix; for a B-shaped output that is the transposed problem:
    // FusedMMB(S, A, B) = FusedMMA(S^T, B, A). The transposed problem
    // needs its own setup snapshot (the caller's plan describes s, not
    // s^T), built here per call.
    auto st = s.transposed();
    st.sort_and_combine();
    const auto tplan = do_make_plan(st, b.cols());
    ExecContext tctx = ctx;
    tctx.plan = tplan.get();
    return do_run_fusedmm(tctx, FusedOrientation::A, elision, st, b, a,
                          repetitions);
  }
  const Setup& su = setup_of(ctx);
  const int L = grid_.layer_size();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  FusedResult result;
  result.output = DenseMatrix(
      orientation == FusedOrientation::A ? su.m : su.n, su.r);
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    // Fault mode reads the rank's piece values through the checkpoint
    // store's live copy instead of the shared setup table.
    const std::vector<Scalar>* live = ckpt ? &ckpt->values(rank) : nullptr;
    const auto live_vals = live_piece_values(su, rank, live);
    const auto* vals = live != nullptr ? &live_vals : nullptr;
    std::vector<CsrMatrix> live_csr;
    if (vals != nullptr) {
      for (int j = 0; j < L; ++j) {
        live_csr.push_back(csr_with_values(
            piece(su, rank, j).csr, (*vals)[static_cast<std::size_t>(j)]));
      }
    }
    const auto kernel_csr = [&](int j) -> const CsrMatrix& {
      return vals != nullptr ? live_csr[static_cast<std::size_t>(j)]
                             : piece(su, rank, j).csr;
    };
    for (int rep = 0; rep < repetitions; ++rep) {
      if (elision == Elision::LocalKernelFusion) {
        // Single propagation loop with the fused local kernel.
        const DenseMatrix fused_a = replicate_a(comm, su, u, v, a, codec);
        DenseMatrix partial(su.mL, su.r);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(partial); };
        hooks.unpack_state = [&](const MessageWords& words) {
          partial = unpack_dense(words, su.mL, su.r);
        };
        b_loop(comm, su, u, v, /*mutates=*/false,
               pack_dense(b.row_block(b_row0(su, v, u),
                                      b_row0(su, v, u) + su.b_blk)),
               [&](int j, MessageWords& block) {
                 const auto bj = unpack_dense(block, su.b_blk, su.r);
                 comm.stats().add_flops(
                     fusedmm_a(kernel_csr(j), fused_a, bj, partial));
               },
               codec, &hooks);
        reduce_partial(comm, su, u, v, partial, result.output, codec);
        continue;
      }
      // SDDMM pass.
      const auto [a_work, dots] =
          replicate_and_dots(comm, su, rank, u, v, a, b, codec);
      std::vector<std::vector<Scalar>> r_values(
          static_cast<std::size_t>(L));
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        for (int j = 0; j < L; ++j) {
          const auto& pc = piece(su, rank, j);
          auto& vals_j = r_values[static_cast<std::size_t>(j)];
          vals_j.resize(pc.coo.size());
          hadamard_values(vals != nullptr
                              ? (*vals)[static_cast<std::size_t>(j)]
                              : pc.coo.values,
                          dots[static_cast<std::size_t>(j)], vals_j);
          comm.stats().add_flops(pc.nnz());
        }
      }
      // SpMM pass on the SDDMM output values.
      if (orientation == FusedOrientation::A) {
        spmma_pass(comm, su, rank, u, v, b, &r_values, result.output,
                   codec);
      } else {
        // Unelided sequence: the SpMM pass replicates A again instead
        // of reusing the SDDMM pass's copy (the gathered bits are the
        // same, so the repeat's result is discarded).
        if (elision == Elision::None) replicate_a(comm, su, u, v, a, codec);
        const auto home = b_loop(
            comm, su, u, v, /*mutates=*/true,
            pack_dense(DenseMatrix(su.b_blk, su.r)),
            [&](int j, MessageWords& block) {
              auto acc = unpack_dense(block, su.b_blk, su.r);
              comm.stats().add_flops(spmm_b(
                  csr_with_values(piece(su, rank, j).csr,
                                  r_values[static_cast<std::size_t>(j)]),
                  a_work, acc));
              block = pack_dense(acc);
            },
            codec);
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.output, unpack_dense(home, su.b_blk, su.r),
                    b_row0(su, v, u), 0);
      }
    }
  }, wo);
  return result;
}

// ------------------------------------------------------------ sparse shift

class SparseShift15D final : public DistAlgorithm {
 public:
  SparseShift15D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::SparseShift15D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision elision) const override {
    return elision != Elision::LocalKernelFusion;
  }

 protected:
  std::shared_ptr<const PlanData> do_make_plan(const CooMatrix& s,
                                               Index r) const override {
    return std::make_shared<Snapshot>(make_setup(s, r));
  }
  KernelResult do_run_kernel(const ExecContext& ctx, Mode mode,
                             const CooMatrix& s, const DenseMatrix& a,
                             const DenseMatrix& b) const override;
  FusedResult do_run_fusedmm(const ExecContext& ctx,
                             FusedOrientation orientation, Elision elision,
                             const CooMatrix& s, const DenseMatrix& a,
                             const DenseMatrix& b,
                             int repetitions) const override;

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

  struct Snapshot final : PlanData {
    explicit Snapshot(Setup setup) : su(std::move(setup)) {}
    Setup su;
  };

  const Setup& setup_of(const ExecContext& ctx) const {
    const auto* snap = dynamic_cast<const Snapshot*>(ctx.plan);
    check(snap != nullptr,
          "1.5D-SparseShift: ExecContext plan was not built by this driver");
    return snap->su;
  }

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int L = grid_.layer_size();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % p() == 0 && su.n % p() == 0 && su.r % L == 0,
          "1.5D-SparseShift: m = ", su.m, ", n = ", su.n,
          " must be multiples of p = ", p(), " and r = ", su.r,
          " a multiple of p/c = ", L, "; call pad_problem first");
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
  /// Cache-hit runs return the parked slice with zero replication
  /// traffic; miss runs park the gathered slice for the next call.
  DenseMatrix replicate_a(Comm& comm, const Setup& su, int u, int v,
                          const DenseMatrix& a, const WireCodec& codec,
                          const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u));
    DenseMatrix out = fiber.allgatherv_rows(
        dense_block(a, static_cast<Index>(v) * su.mc, su.mc,
                    static_cast<Index>(u) * su.rL, su.rL),
        su.layer_support, options().replication, codec);
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
              const std::function<void(int, MessageWords&)>& body,
              const ShiftJournalHooks* state = nullptr) const {
    const int L = grid_.layer_size();
    const auto layer = grid_.layer_members(v);
    ShiftChannel ch =
        ring_channel(layer, u, kTagShift, mutates, std::move(start));
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, [&](int t) {
      body((u + t) % L, ch.block);
    }, state);
  }

  /// The rank's home piece values — the rank-local sparse memory the
  /// checkpoint store snapshots (non-home pieces conceptually arrive via
  /// the ring payload from their own — also checkpointed — owners).
  std::vector<Scalar> shard_values(const Setup& su, int rank) const {
    const auto& v = piece(su, grid_.v_of(rank), grid_.u_of(rank)).coo.values;
    return {v.begin(), v.end()};
  }

  /// Crash recovery for the unreplicated sparse-shift family: snapshot
  /// every rank's home piece values into the checkpoint store before the
  /// world runs; on_crash restores the scrubbed shard through the
  /// digest check and the journaled shift loops resume past the last
  /// jointly completed step.
  WorldOptions fault_options(const Setup& su,
                             std::optional<CheckpointStore>& ckpt) const {
    WorldOptions wo;
    wo.faults = options().faults;
    wo.max_recoveries = options().max_recoveries;
    wo.checkpoint_interval = options().checkpoint_interval;
    if (wo.faults == nullptr || !wo.faults->enabled() ||
        wo.faults->crashes.empty()) {
      return wo;
    }
    ckpt.emplace(p());
    for (int rank = 0; rank < p(); ++rank) {
      ckpt->save_shard(rank, shard_values(su, rank));
    }
    CheckpointStore* cp = &*ckpt;
    wo.on_crash = [cp](const CrashInfo& crash) {
      cp->scrub(crash.rank);
      cp->restore(crash.rank);
    };
    return wo;
  }

  /// Replicate A and circulate the home piece's dot payload for L steps
  /// (the SDDMM pass shared by the kernel and FusedMM). Returns the
  /// replicated slice and the home piece's accumulated dot payload.
  std::pair<DenseMatrix, Triplets> sddmm_pass(
      Comm& comm, const Setup& su, int u, int v, const DenseMatrix& a,
      const DenseMatrix& b_local, const WireCodec& codec,
      const CacheUse& cu = {}) const {
    const int L = grid_.layer_size();
    DenseMatrix a_work = replicate_a(comm, su, u, v, a, codec, cu);
    Triplets start = piece(su, v, u).coo;
    start.values.assign(start.size(), Scalar{0});
    const auto layer = grid_.layer_members(v);
    ShiftChannel ch = ring_channel(layer, u, kTagShift, /*mutates=*/true,
                                   pack_triplets(start, codec));
    const auto body = [&](int t) {
      const int j = (u + t) % L;
      auto payload = unpack_triplets(ch.block, codec);
      comm.stats().add_flops(masked_dot_products(
          piece(su, v, j).csr, a_work, b_local, payload.values));
      ch.block = pack_triplets(payload, codec);
    };
    run_shift_loop(comm, options().schedule, L, {&ch, 1}, body);
    return {std::move(a_work), unpack_triplets(ch.block, codec)};
  }

  Grid15D grid_;
};

KernelResult SparseShift15D::do_run_kernel(const ExecContext& ctx,
                                           Mode mode, const CooMatrix& s,
                                           const DenseMatrix& a,
                                           const DenseMatrix& b) const {
  const Setup& su = setup_of(ctx);
  KernelResult result;
  if (mode == Mode::SpMMA) {
    result.dense = DenseMatrix(su.m, su.r);
  } else if (mode == Mode::SpMMB) {
    result.dense = DenseMatrix(su.n, su.r);
  } else {
    result.sddmm_values.assign(static_cast<std::size_t>(s.nnz()),
                               Scalar{0});
  }
  const WireCodec codec = effective_wire_codec(options(), ctx);
  // SpMMA never replicates A (its replication phase is the output
  // reduce-scatter), so only the A-consuming modes consult the cache.
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto b_local = local_b(su, u, v, b);
    // Fault mode reads the rank's home piece values through the
    // checkpoint store's live copy instead of the shared setup table
    // (non-home pieces conceptually arrive via the ring payload).
    const std::vector<Scalar>* live = ckpt ? &ckpt->values(rank) : nullptr;
    const CsrMatrix live_home =
        live != nullptr ? csr_with_values(piece(su, v, u).csr, *live)
                        : CsrMatrix();
    const auto kernel_csr = [&](int j) -> const CsrMatrix& {
      return live != nullptr && j == u ? live_home : piece(su, v, j).csr;
    };
    switch (mode) {
      case Mode::SpMMA: {
        DenseMatrix partial(su.m, su.rL);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(partial); };
        hooks.unpack_state = [&](const MessageWords& words) {
          partial = unpack_dense(words, su.m, su.rL);
        };
        s_loop(comm, u, v, /*mutates=*/false,
               pack_triplets(piece(su, v, u).coo, codec),
               [&](int j, MessageWords&) {
                 comm.stats().add_flops(
                     spmm_a(kernel_csr(j), b_local, partial));
               },
               &hooks);
        reduce_partial(comm, su, u, v, partial, result.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        // After L shifts the resident payload is the home piece again,
        // its dot products accumulated over every width slice.
        const auto [a_work, dots] =
            sddmm_pass(comm, su, u, v, a, b_local, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto& home = piece(su, v, u);
        std::vector<Scalar> vals(home.coo.size());
        hadamard_values(live != nullptr
                            ? std::span<const Scalar>(*live)
                            : std::span<const Scalar>(home.coo.values),
                        dots.values, vals);
        comm.stats().add_flops(home.nnz());
        scatter_values(vals, home.entries, result.sddmm_values);
        return;
      }
      case Mode::SpMMB: {
        const DenseMatrix a_work = replicate_a(comm, su, u, v, a, codec, cu);
        DenseMatrix b_out(su.n / c(), su.rL);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(b_out); };
        hooks.unpack_state = [&](const MessageWords& words) {
          b_out = unpack_dense(words, su.n / c(), su.rL);
        };
        s_loop(comm, u, v, /*mutates=*/false,
               pack_triplets(piece(su, v, u).coo, codec),
               [&](int j, MessageWords&) {
                 comm.stats().add_flops(
                     spmm_b(kernel_csr(j), a_work, b_out));
               },
               &hooks);
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.dense, b_out,
                    static_cast<Index>(v) * (su.n / c()),
                    static_cast<Index>(u) * su.rL);
        return;
      }
    }
    fail("1.5D-SparseShift: unknown mode");
  }, wo);
  return result;
}

FusedResult SparseShift15D::do_run_fusedmm(const ExecContext& ctx,
                                           FusedOrientation orientation,
                                           Elision elision,
                                           const CooMatrix&,
                                           const DenseMatrix& a,
                                           const DenseMatrix& b,
                                           int repetitions) const {
  const Setup& su = setup_of(ctx);
  const WireCodec codec = effective_wire_codec(options(), ctx);
  FusedResult result;
  result.output = DenseMatrix(
      orientation == FusedOrientation::A ? su.m : su.n, su.r);
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank);
    const auto b_local = local_b(su, u, v, b);
    // Fault mode reads the rank's home piece values through the
    // checkpoint store's live copy instead of the shared setup table.
    const std::vector<Scalar>* live = ckpt ? &ckpt->values(rank) : nullptr;
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: dot products circulate with the pieces.
      const auto [a_work, dots] =
          sddmm_pass(comm, su, u, v, a, b_local, codec);
      std::vector<Scalar> r_values(piece(su, v, u).coo.size());
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        hadamard_values(
            live != nullptr
                ? std::span<const Scalar>(*live)
                : std::span<const Scalar>(piece(su, v, u).coo.values),
            dots.values, r_values);
        comm.stats().add_flops(piece(su, v, u).nnz());
      }
      // SpMM pass: pieces circulate carrying the SDDMM output values.
      Triplets r_piece = piece(su, v, u).coo;
      r_piece.values = r_values;
      if (orientation == FusedOrientation::A) {
        DenseMatrix partial(su.m, su.rL);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(partial); };
        hooks.unpack_state = [&](const MessageWords& words) {
          partial = unpack_dense(words, su.m, su.rL);
        };
        s_loop(comm, u, v, /*mutates=*/false, pack_triplets(r_piece, codec),
               [&](int j, MessageWords& block) {
                 const auto payload = unpack_triplets(block, codec);
                 comm.stats().add_flops(spmm_a(
                     csr_with_values(piece(su, v, j).csr, payload.values),
                     b_local, partial));
               },
               &hooks);
        reduce_partial(comm, su, u, v, partial, result.output, codec);
      } else {
        // Unelided sequence: the SpMM-B pass replicates A again instead
        // of reusing the SDDMM pass's copy (result discarded; orientation
        // A's SpMM pass never reads A, so it has nothing to
        // re-replicate).
        if (elision == Elision::None) replicate_a(comm, su, u, v, a, codec);
        DenseMatrix b_out(su.n / c(), su.rL);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(b_out); };
        hooks.unpack_state = [&](const MessageWords& words) {
          b_out = unpack_dense(words, su.n / c(), su.rL);
        };
        s_loop(comm, u, v, /*mutates=*/false, pack_triplets(r_piece, codec),
               [&](int j, MessageWords& block) {
                 const auto payload = unpack_triplets(block, codec);
                 comm.stats().add_flops(spmm_b(
                     csr_with_values(piece(su, v, j).csr, payload.values),
                     a_work, b_out));
               },
               &hooks);
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.output, b_out,
                    static_cast<Index>(v) * (su.n / c()),
                    static_cast<Index>(u) * su.rL);
      }
    }
  }, wo);
  return result;
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
