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

#include <optional>

#include "common/error.hpp"
#include "dist/families.hpp"
#include "dist/replication_cache.hpp"
#include "dist/grid.hpp"
#include "local/schedule.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/collectives.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"
#include "runtime/world.hpp"

namespace dsk::detail {
namespace {

// --------------------------------------------------------- dense replicate

class DenseRepl25D final : public DistAlgorithm {
 public:
  DenseRepl25D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::DenseRepl25D, p, c, options),
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

  struct Snapshot final : PlanData {
    explicit Snapshot(Setup setup) : su(std::move(setup)) {}
    Setup su;
  };

  const Setup& setup_of(const ExecContext& ctx) const {
    const auto* snap = dynamic_cast<const Snapshot*>(ctx.plan);
    check(snap != nullptr,
          "2.5D-DenseRepl: ExecContext plan was not built by this driver");
    return snap->su;
  }

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    const Index qc = static_cast<Index>(q) * c();
    check(su.m % qc == 0 && su.n % qc == 0 && su.r % q == 0,
          "2.5D-DenseRepl: m = ", su.m, ", n = ", su.n,
          " must be multiples of q*c = ", qc, " and r = ", su.r,
          " a multiple of q = ", q, "; call pad_problem first");
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
  /// hit the parked block is returned without touching the wire; on a
  /// filling run the gathered block is parked for the next call.
  DenseMatrix replicate_a(Comm& comm, const Setup& su, int u, int v,
                          int w, const DenseMatrix& a,
                          const WireCodec& codec,
                          const CacheUse& cu = {}) const {
    if (cu.hit) return cu.cache->block(comm.rank());
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    DenseMatrix out = fiber.allgatherv_rows(
        dense_block(a, static_cast<Index>(u) * su.mq + w * su.mqc, su.mqc,
                    static_cast<Index>(v) * su.rq, su.rq),
        fiber_wants(su, u), options().replication, codec);
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

  /// Fault-mode world options. With crashes in the plan, `store` models
  /// each rank's rank-local sparse memory — its home piece's values —
  /// as replicated along its row ring (the ring traffic materializes a
  /// copy of every circulating piece on every ring peer), and on_crash
  /// scrubs the crashed rank and rebuilds the shard from a digest-valid
  /// survivor. When no peer survives (q == 1 rings have no redundancy)
  /// recovery falls back to the digest-verified checkpoint store and the
  /// restored bytes are adopted back into the replica store. The kernels
  /// then read home-piece values through the store (see live_values) so
  /// the scrub/rebuild cycle touches the data the computation actually
  /// uses.
  WorldOptions fault_options(const Setup& su,
                             std::optional<ReplicaStore>& store,
                             std::optional<CheckpointStore>& ckpt) const {
    WorldOptions wo;
    wo.faults = options().faults;
    wo.max_recoveries = options().max_recoveries;
    wo.checkpoint_interval = options().checkpoint_interval;
    if (wo.faults == nullptr || !wo.faults->enabled() ||
        wo.faults->crashes.empty()) {
      return wo;
    }
    store.emplace(p());
    ckpt.emplace(p());
    for (int rank = 0; rank < p(); ++rank) {
      const int u = grid_.u_of(rank), v = grid_.v_of(rank),
                w = grid_.w_of(rank);
      std::vector<int> peers;
      for (const int m : grid_.row_members(u, w)) {
        if (m != rank) peers.push_back(m);
      }
      const auto& shard = piece(su, u, k_at(u, v, 0), w).coo.values;
      ckpt->save_shard(rank, {shard.begin(), shard.end()});
      store->set_shard(rank, shard, std::move(peers));
    }
    store->finalize();
    ReplicaStore* sp = &*store;
    CheckpointStore* cp = &*ckpt;
    wo.on_crash = [sp, cp](const CrashInfo& crash) {
      sp->scrub(crash.rank);
      if (sp->can_reconstruct(crash.rank)) {
        sp->reconstruct(crash.rank);
      } else {
        cp->restore(crash.rank);
        sp->adopt(crash.rank, cp->values(crash.rank));
      }
    };
    return wo;
  }

  /// Global row of B column block k (for layer w).
  Index b_row0(const Setup& su, int k, int w) const {
    return (static_cast<Index>(k) * c() + w) * su.nqc;
  }

  /// The v-th width slice of B column block k0 — the B payload resident
  /// on rank (u, v, w) at step 0.
  DenseMatrix b0_block(const Setup& su, int k0, int v, int w,
                       const DenseMatrix& b) const {
    return b.row_block(b_row0(su, k0, w), b_row0(su, k0, w) + su.nqc)
        .col_block(static_cast<Index>(v) * su.rq,
                   (v + 1) * static_cast<Index>(su.rq));
  }

  /// Replicate A and run the SDDMM dot loop (S dots circulate on the row
  /// ring, B blocks on the column ring) — shared by the SDDMM kernel and
  /// the FusedMM SDDMM pass. Returns the working block and the home
  /// piece's accumulated dot payload.
  std::pair<DenseMatrix, Triplets> sddmm_pass(Comm& comm, const Setup& su,
                                              int u, int v, int w,
                                              const DenseMatrix& a,
                                              const DenseMatrix& b,
                                              const WireCodec& codec,
                                              const CacheUse& cu = {}) const {
    const int q = grid_.q();
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    DenseMatrix a_work = replicate_a(comm, su, u, v, w, a, codec, cu);
    Triplets start = piece(su, u, k0, w).coo;
    start.values.assign(start.size(), Scalar{0});
    ShiftChannel chs = ring_channel(row_ring, v, kTagShift,
                                    /*mutates=*/true,
                                    pack_triplets(start, codec));
    ShiftChannel chb =
        ring_channel(col_ring, u, kTagShiftDense, /*mutates=*/false,
                     pack_dense(b0_block(su, k0, v, w, b)));
    const ShiftCompression bcomp =
        b_compression(su, u, v, w, /*mutates=*/false, codec);
    chb.compression = &bcomp;
    ShiftChannel channels[] = {std::move(chs), std::move(chb)};
    const auto body = [&](int t) {
      const int k = k_at(u, v, t);
      auto payload = unpack_triplets(channels[0].block, codec);
      const auto bk = unpack_dense(channels[1].block, su.nqc, su.rq);
      comm.stats().add_flops(masked_dot_products(
          piece(su, u, k, w).csr, a_work, bk, payload.values));
      channels[0].block = pack_triplets(payload, codec);
    };
    run_shift_loop(comm, options().schedule, q, channels, body);
    return {std::move(a_work), unpack_triplets(channels[0].block, codec)};
  }

  Grid25D grid_;
};

KernelResult DenseRepl25D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                         const CooMatrix& s,
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
  const int q = grid_.q();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  std::optional<ReplicaStore> store;
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, store, ckpt);
  // One driver-thread cache decision for the whole run; SpMMA never
  // consults the cache (its Replication phase is the output
  // reduce-scatter, not a reusable input gather).
  const CacheUse cu =
      mode == Mode::SpMMA ? CacheUse{} : cache_use(ctx, options());
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    // Crash mode: the rank's home-piece values live in the replica
    // store (scrubbed and rebuilt across recoveries); everything the
    // kernels read of them routes through here. Fault-free this is the
    // setup table itself — zero overhead, bit-identical.
    const std::vector<Scalar>* live =
        store ? &store->values(rank) : nullptr;
    const auto home_triplets = [&] {
      Triplets t = piece(su, u, k0, w).coo;
      if (live != nullptr) t.values = *live;
      return t;
    };
    const CsrMatrix live_home_csr =
        live != nullptr ? csr_with_values(piece(su, u, k0, w).csr, *live)
                        : CsrMatrix();
    const auto kernel_csr = [&](int k) -> const CsrMatrix& {
      return live != nullptr && k == k0 ? live_home_csr
                                        : piece(su, u, k, w).csr;
    };
    switch (mode) {
      case Mode::SpMMA: {
        // S pieces (with values) and B blocks circulate; the A-shaped
        // partial stays put and is reduce-scattered along the fiber.
        ShiftChannel chs =
            ring_channel(row_ring, v, kTagShift, /*mutates=*/false,
                         pack_triplets(home_triplets(), codec));
        ShiftChannel chb = ring_channel(
            col_ring, u, kTagShiftDense, /*mutates=*/false,
            pack_dense(b.row_block(b_row0(su, k0, w),
                                   b_row0(su, k0, w) + su.nqc)
                           .col_block(static_cast<Index>(v) * su.rq,
                                      (v + 1) * static_cast<Index>(su.rq))));
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/false, codec);
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(chs), std::move(chb)};
        DenseMatrix partial(su.mq, su.rq);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(partial); };
        hooks.unpack_state = [&](const MessageWords& words) {
          partial = unpack_dense(words, su.mq, su.rq);
        };
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          const auto bk = unpack_dense(channels[1].block, su.nqc, su.rq);
          comm.stats().add_flops(spmm_a(kernel_csr(k), bk, partial));
        }, &hooks);
        reduce_partial(comm, su, u, v, w, partial, result.dense, codec);
        return;
      }
      case Mode::SDDMM: {
        const auto [a_work, dots] =
            sddmm_pass(comm, su, u, v, w, a, b, codec, cu);
        (void)a_work;
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto& home = piece(su, u, k0, w);
        const auto& home_values =
            live != nullptr ? *live : home.coo.values;
        std::vector<Scalar> vals(home.coo.size());
        hadamard_values(home_values, dots.values, vals);
        comm.stats().add_flops(home.nnz());
        scatter_values(vals, home.entries, result.sddmm_values);
        return;
      }
      case Mode::SpMMB: {
        const DenseMatrix a_work =
            replicate_a(comm, su, u, v, w, a, codec, cu);
        ShiftChannel chs =
            ring_channel(row_ring, v, kTagShift, /*mutates=*/false,
                         pack_triplets(home_triplets(), codec));
        ShiftChannel chb = ring_channel(
            col_ring, u, kTagShiftDense, /*mutates=*/true,
            pack_dense(DenseMatrix(su.nqc, su.rq)));
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/true, codec);
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(chs), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          auto acc = unpack_dense(channels[1].block, su.nqc, su.rq);
          comm.stats().add_flops(spmm_b(kernel_csr(k), a_work, acc));
          channels[1].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.dense,
                    unpack_dense(channels[1].block, su.nqc, su.rq),
                    b_row0(su, k0, w), static_cast<Index>(v) * su.rq);
        return;
      }
    }
    fail("2.5D-DenseRepl: unknown mode");
  }, wo);
  return result;
}

FusedResult DenseRepl25D::do_run_fusedmm(const ExecContext& ctx,
                                         FusedOrientation orientation,
                                         Elision elision,
                                         const CooMatrix&,
                                         const DenseMatrix& a,
                                         const DenseMatrix& b,
                                         int repetitions) const {
  const Setup& su = setup_of(ctx);
  const int q = grid_.q();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  FusedResult result;
  result.output = DenseMatrix(
      orientation == FusedOrientation::A ? su.m : su.n, su.r);
  std::optional<ReplicaStore> store;
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, store, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const int k0 = k_at(u, v, 0);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    const std::vector<Scalar>* live =
        store ? &store->values(rank) : nullptr;
    const auto b_block = [&] {
      return pack_dense(b0_block(su, k0, v, w, b));
    };
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: dots circulate with the S pieces, B input blocks
      // circulate on the column ring.
      const auto [a_work, dots] =
          sddmm_pass(comm, su, u, v, w, a, b, codec);
      std::vector<Scalar> r_values;
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto& home = piece(su, u, k0, w);
        const auto& home_values =
            live != nullptr ? *live : home.coo.values;
        r_values.resize(home.coo.size());
        hadamard_values(home_values, dots.values, r_values);
        comm.stats().add_flops(home.nnz());
      }
      // Unelided sequence: the SpMM pass replicates A again (result
      // discarded — the gathered bits are unchanged).
      if (elision == Elision::None) replicate_a(comm, su, u, v, w, a, codec);
      // SpMM pass: the S pieces circulate carrying the SDDMM output.
      Triplets r_piece = piece(su, u, k0, w).coo;
      r_piece.values = r_values;
      ShiftChannel chs = ring_channel(row_ring, v, kTagShift,
                                      /*mutates=*/false,
                                      pack_triplets(r_piece, codec));
      if (orientation == FusedOrientation::A) {
        ShiftChannel chb = ring_channel(col_ring, u, kTagShiftDense,
                                        /*mutates=*/false, b_block());
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/false, codec);
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(chs), std::move(chb)};
        DenseMatrix partial(su.mq, su.rq);
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] { return pack_dense(partial); };
        hooks.unpack_state = [&](const MessageWords& words) {
          partial = unpack_dense(words, su.mq, su.rq);
        };
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          const auto payload = unpack_triplets(channels[0].block, codec);
          const auto bk = unpack_dense(channels[1].block, su.nqc, su.rq);
          comm.stats().add_flops(
              spmm_a(csr_with_values(piece(su, u, k, w).csr,
                                     payload.values),
                     bk, partial));
        }, &hooks);
        reduce_partial(comm, su, u, v, w, partial, result.output, codec);
      } else {
        ShiftChannel chb = ring_channel(
            col_ring, u, kTagShiftDense, /*mutates=*/true,
            pack_dense(DenseMatrix(su.nqc, su.rq)));
        const ShiftCompression bcomp =
            b_compression(su, u, v, w, /*mutates=*/true, codec);
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(chs), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int t) {
          const int k = k_at(u, v, t);
          const auto payload = unpack_triplets(channels[0].block, codec);
          auto acc = unpack_dense(channels[1].block, su.nqc, su.rq);
          comm.stats().add_flops(
              spmm_b(csr_with_values(piece(su, u, k, w).csr,
                                     payload.values),
                     a_work, acc));
          channels[1].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.output,
                    unpack_dense(channels[1].block, su.nqc, su.rq),
                    b_row0(su, k0, w), static_cast<Index>(v) * su.rq);
      }
    }
  }, wo);
  return result;
}

// -------------------------------------------------------- sparse replicate

class SparseRepl25D final : public DistAlgorithm {
 public:
  SparseRepl25D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::SparseRepl25D, p, c, options),
        grid_(p, c) {}

  bool supports(Elision elision) const override {
    return elision == Elision::None;
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
    Index mq = 0;  ///< cell height m / q
    Index nq = 0;  ///< cell width n / q
    Index rqc = 0; ///< width slice r / (qc)
    /// Cell (u, v), shared by its c fiber ranks.
    std::vector<SparseShard> cells;
    /// Per cell: value ownership boundaries across the fiber (c + 1
    /// monotone offsets into the cell's entry range).
    std::vector<std::vector<Index>> value_split;
  };

  struct Snapshot final : PlanData {
    explicit Snapshot(Setup setup) : su(std::move(setup)) {}
    Setup su;
  };

  const Setup& setup_of(const ExecContext& ctx) const {
    const auto* snap = dynamic_cast<const Snapshot*>(ctx.plan);
    check(snap != nullptr,
          "2.5D-SparseRepl: ExecContext plan was not built by this driver");
    return snap->su;
  }

  Setup make_setup(const CooMatrix& s, Index r) const {
    const int q = grid_.q();
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    check(su.m % q == 0 && su.n % q == 0 &&
              su.r % (static_cast<Index>(q) * c()) == 0,
          "2.5D-SparseRepl: m = ", su.m, ", n = ", su.n,
          " must be multiples of q = ", q, " and r = ", su.r,
          " a multiple of q*c = ",
          static_cast<Index>(q) * c(), "; call pad_problem first");
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

  /// All-gather the cell's canonically split values along the fiber;
  /// returns the full value vector (cost: (c-1)/c * cell_nnz words).
  /// The replication traffic of this family is already sparsity-sized
  /// (values and dot buffers, no dense row blocks), so the
  /// options().replication knob has nothing to elide here: SparseRows
  /// and Auto behave exactly like Dense. The PROPAGATION knob, by
  /// contrast, bites twice in
  /// this family: both circulating dense slices compress against the
  /// stationary cells' supports (A by rows, B by columns) — see
  /// a_compression / b_compression below.
  std::vector<Scalar> gather_values(Comm& comm, const Setup& su, int u,
                                    int v, int w,
                                    const std::vector<Scalar>* live,
                                    const WireCodec& codec) const {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group fiber(comm, grid_.fiber_members(u, v));
    const auto& split = su.value_split[static_cast<std::size_t>(
        u * grid_.q() + v)];
    const auto& values = cell(su, u, v).coo.values;
    const auto begin = static_cast<std::size_t>(
        split[static_cast<std::size_t>(w)]);
    const auto end = static_cast<std::size_t>(
        split[static_cast<std::size_t>(w) + 1]);
    // Crash mode routes the rank's canonical slice through the replica
    // store — exactly the memory a crash scrubs and a recovery rebuilds.
    const auto slice =
        live != nullptr
            ? std::span<const Scalar>(*live)
            : std::span<const Scalar>(values.data() + begin, end - begin);
    // Low-precision payloads pad each member's last word, so the gathered
    // stream is decoded member by member against the canonical split
    // (the counts travel out of band with the plan).
    std::vector<std::size_t> offsets;
    const auto words =
        fiber.allgather_words(pack_values(slice, codec), &offsets);
    std::vector<Scalar> full;
    full.reserve(values.size());
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

  /// Fault-mode world options, mirroring DenseRepl25D::fault_options:
  /// here a rank's rank-local sparse memory is its canonical
  /// value_split[w] slice of cell (u, v), replicated across the c fiber
  /// ranks by every gather_values call — so the fiber members are the
  /// peers a crashed slice is rebuilt from, and c == 1 fibers have no
  /// redundancy — recovery then falls back to the digest-verified
  /// checkpoint store and adopts the restored bytes into the replica
  /// store).
  WorldOptions fault_options(const Setup& su,
                             std::optional<ReplicaStore>& store,
                             std::optional<CheckpointStore>& ckpt) const {
    WorldOptions wo;
    wo.faults = options().faults;
    wo.max_recoveries = options().max_recoveries;
    wo.checkpoint_interval = options().checkpoint_interval;
    if (wo.faults == nullptr || !wo.faults->enabled() ||
        wo.faults->crashes.empty()) {
      return wo;
    }
    store.emplace(p());
    ckpt.emplace(p());
    for (int rank = 0; rank < p(); ++rank) {
      const int u = grid_.u_of(rank), v = grid_.v_of(rank),
                w = grid_.w_of(rank);
      const auto& split = su.value_split[static_cast<std::size_t>(
          u * grid_.q() + v)];
      const auto& values = cell(su, u, v).coo.values;
      std::vector<Scalar> shard(
          values.begin() + split[static_cast<std::size_t>(w)],
          values.begin() + split[static_cast<std::size_t>(w) + 1]);
      std::vector<int> peers;
      for (const int m : grid_.fiber_members(u, v)) {
        if (m != rank) peers.push_back(m);
      }
      ckpt->save_shard(rank, {shard.begin(), shard.end()});
      store->set_shard(rank, std::move(shard), std::move(peers));
    }
    store->finalize();
    ReplicaStore* sp = &*store;
    CheckpointStore* cp = &*ckpt;
    wo.on_crash = [sp, cp](const CrashInfo& crash) {
      sp->scrub(crash.rank);
      if (sp->can_reconstruct(crash.rank)) {
        sp->reconstruct(crash.rank);
      } else {
        cp->restore(crash.rank);
        sp->adopt(crash.rank, cp->values(crash.rank));
      }
    };
    return wo;
  }

  Grid25D grid_;
};

KernelResult SparseRepl25D::do_run_kernel(const ExecContext& ctx, Mode mode,
                                          const CooMatrix& s,
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
  const int q = grid_.q();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  std::optional<ReplicaStore> store;
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, store, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    const Index s0 = slice_at(u, v, w, 0);
    const auto& sc = cell(su, u, v);
    const std::vector<Scalar>* live =
        store ? &store->values(rank) : nullptr;
    const auto a_piece = [&] {
      return pack_dense(dense_block(a, static_cast<Index>(u) * su.mq,
                                    su.mq, s0 * su.rqc, su.rqc));
    };
    const auto b_piece = [&] {
      return pack_dense(dense_block(b, static_cast<Index>(v) * su.nq,
                                    su.nq, s0 * su.rqc, su.rqc));
    };
    // The cell's values are canonically split across the fiber; every
    // kernel starts by assembling the full value vector.
    const auto values_full = gather_values(comm, su, u, v, w, live, codec);
    switch (mode) {
      case Mode::SDDMM: {
        std::vector<Scalar> dots(sc.coo.size(), Scalar{0});
        ShiftChannel cha = ring_channel(row_ring, v, kTagShift,
                                        /*mutates=*/false, a_piece());
        ShiftChannel chb = ring_channel(col_ring, u, kTagShiftDense,
                                        /*mutates=*/false, b_piece());
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/false, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/false, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] {
          return pack_values(std::span<const Scalar>(dots));
        };
        hooks.unpack_state = [&](const MessageWords& words) {
          dots = unpack_values(words);
        };
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          const auto ak =
              unpack_dense(channels[0].block, su.mq, su.rqc);
          const auto bk =
              unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(
              masked_dot_products(sc.csr, ak, bk, dots));
        }, &hooks);
        std::vector<Scalar> dots_full;
        {
          PhaseScope scope(comm.stats(), Phase::Replication);
          Group fiber(comm, grid_.fiber_members(u, v));
          dots_full = fiber.allreduce(dots);
        }
        // Each fiber rank finalizes its canonical value range.
        PhaseScope scope(comm.stats(), Phase::Computation);
        const auto& split = su.value_split[static_cast<std::size_t>(
            u * q + v)];
        for (Index k = split[static_cast<std::size_t>(w)];
             k < split[static_cast<std::size_t>(w) + 1]; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          result.sddmm_values[static_cast<std::size_t>(sc.entries[kk])] =
              values_full[kk] * dots_full[kk];
        }
        comm.stats().add_flops(sc.nnz() / std::max(1, c()));
        return;
      }
      case Mode::SpMMA: {
        const auto cell_csr = csr_with_values(sc.csr, values_full);
        ShiftChannel cha = ring_channel(
            row_ring, v, kTagShift, /*mutates=*/true,
            pack_dense(DenseMatrix(su.mq, su.rqc)));
        ShiftChannel chb = ring_channel(col_ring, u, kTagShiftDense,
                                        /*mutates=*/false, b_piece());
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/true, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/false, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          auto acc = unpack_dense(channels[0].block, su.mq, su.rqc);
          const auto bk =
              unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(spmm_a(cell_csr, bk, acc));
          channels[0].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.dense,
                    unpack_dense(channels[0].block, su.mq, su.rqc),
                    static_cast<Index>(u) * su.mq, s0 * su.rqc);
        return;
      }
      case Mode::SpMMB: {
        const auto cell_csr = csr_with_values(sc.csr, values_full);
        ShiftChannel cha = ring_channel(row_ring, v, kTagShift,
                                        /*mutates=*/false, a_piece());
        ShiftChannel chb = ring_channel(
            col_ring, u, kTagShiftDense, /*mutates=*/true,
            pack_dense(DenseMatrix(su.nq, su.rqc)));
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/false, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/true, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          const auto ak =
              unpack_dense(channels[0].block, su.mq, su.rqc);
          auto acc = unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(spmm_b(cell_csr, ak, acc));
          channels[1].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.dense,
                    unpack_dense(channels[1].block, su.nq, su.rqc),
                    static_cast<Index>(v) * su.nq, s0 * su.rqc);
        return;
      }
    }
    fail("2.5D-SparseRepl: unknown mode");
  }, wo);
  return result;
}

FusedResult SparseRepl25D::do_run_fusedmm(const ExecContext& ctx,
                                          FusedOrientation orientation,
                                          Elision, const CooMatrix&,
                                          const DenseMatrix& a,
                                          const DenseMatrix& b,
                                          int repetitions) const {
  const Setup& su = setup_of(ctx);
  const int q = grid_.q();
  const WireCodec codec = effective_wire_codec(options(), ctx);
  FusedResult result;
  result.output = DenseMatrix(
      orientation == FusedOrientation::A ? su.m : su.n, su.r);
  std::optional<ReplicaStore> store;
  std::optional<CheckpointStore> ckpt;
  const WorldOptions wo = fault_options(su, store, ckpt);
  result.stats = run_in(ctx.world, p(), [&](Comm& comm) {
    const int rank = comm.rank();
    const int u = grid_.u_of(rank), v = grid_.v_of(rank),
              w = grid_.w_of(rank);
    const auto row_ring = grid_.row_members(u, w);
    const auto col_ring = grid_.col_members(v, w);
    const Index s0 = slice_at(u, v, w, 0);
    const auto& sc = cell(su, u, v);
    const std::vector<Scalar>* live =
        store ? &store->values(rank) : nullptr;
    const auto a_piece = [&] {
      return pack_dense(dense_block(a, static_cast<Index>(u) * su.mq,
                                    su.mq, s0 * su.rqc, su.rqc));
    };
    const auto b_piece = [&] {
      return pack_dense(dense_block(b, static_cast<Index>(v) * su.nq,
                                    su.nq, s0 * su.rqc, su.rqc));
    };
    for (int rep = 0; rep < repetitions; ++rep) {
      // SDDMM pass: both dense slices circulate, the dot buffer stays.
      const auto values_full =
          gather_values(comm, su, u, v, w, live, codec);
      std::vector<Scalar> dots(sc.coo.size(), Scalar{0});
      {
        ShiftChannel cha = ring_channel(row_ring, v, kTagShift,
                                        /*mutates=*/false, a_piece());
        ShiftChannel chb = ring_channel(col_ring, u, kTagShiftDense,
                                        /*mutates=*/false, b_piece());
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/false, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/false, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        ShiftJournalHooks hooks;
        hooks.pack_state = [&] {
          return pack_values(std::span<const Scalar>(dots));
        };
        hooks.unpack_state = [&](const MessageWords& words) {
          dots = unpack_values(words);
        };
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          const auto ak =
              unpack_dense(channels[0].block, su.mq, su.rqc);
          const auto bk =
              unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(
              masked_dot_products(sc.csr, ak, bk, dots));
        }, &hooks);
      }
      std::vector<Scalar> dots_full;
      {
        PhaseScope scope(comm.stats(), Phase::Replication);
        Group fiber(comm, grid_.fiber_members(u, v));
        dots_full = fiber.allreduce(dots);
      }
      std::vector<Scalar> r_values(sc.coo.size());
      {
        PhaseScope scope(comm.stats(), Phase::Computation);
        hadamard_values(values_full, dots_full, r_values);
        comm.stats().add_flops(sc.nnz());
      }
      const auto r_csr = csr_with_values(sc.csr, r_values);
      // SpMM pass: the input slices circulate again, now alongside the
      // circulating output accumulators.
      if (orientation == FusedOrientation::A) {
        ShiftChannel cha = ring_channel(
            row_ring, v, kTagShift, /*mutates=*/true,
            pack_dense(DenseMatrix(su.mq, su.rqc)));
        ShiftChannel chb = ring_channel(col_ring, u, kTagShiftDense,
                                        /*mutates=*/false, b_piece());
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/true, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/false, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          auto acc = unpack_dense(channels[0].block, su.mq, su.rqc);
          const auto bk =
              unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(spmm_a(r_csr, bk, acc));
          channels[0].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.output,
                    unpack_dense(channels[0].block, su.mq, su.rqc),
                    static_cast<Index>(u) * su.mq, s0 * su.rqc);
      } else {
        ShiftChannel cha = ring_channel(row_ring, v, kTagShift,
                                        /*mutates=*/false, a_piece());
        ShiftChannel chb = ring_channel(
            col_ring, u, kTagShiftDense, /*mutates=*/true,
            pack_dense(DenseMatrix(su.nq, su.rqc)));
        const ShiftCompression acomp =
            a_compression(su, u, v, /*mutates=*/false, codec);
        const ShiftCompression bcomp =
            b_compression(su, u, v, /*mutates=*/true, codec);
        cha.compression = &acomp;
        chb.compression = &bcomp;
        ShiftChannel channels[] = {std::move(cha), std::move(chb)};
        run_shift_loop(comm, options().schedule, q, channels, [&](int) {
          const auto ak =
              unpack_dense(channels[0].block, su.mq, su.rqc);
          auto acc = unpack_dense(channels[1].block, su.nq, su.rqc);
          comm.stats().add_flops(spmm_b(r_csr, ak, acc));
          channels[1].block = pack_dense(acc);
        });
        PhaseScope scope(comm.stats(), Phase::Computation);
        place_block(result.output,
                    unpack_dense(channels[1].block, su.nq, su.rqc),
                    static_cast<Index>(v) * su.nq, s0 * su.rqc);
      }
    }
  }, wo);
  return result;
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
