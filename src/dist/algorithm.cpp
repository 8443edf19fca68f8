#include "dist/algorithm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dist/families.hpp"
#include "dist/replication_cache.hpp"
#include "dist/grid.hpp"
#include "dist/problem.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collectives.hpp"
#include "runtime/world.hpp"

namespace dsk {

bool supports(AlgorithmKind kind, Elision elision) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
      return true;
    case AlgorithmKind::SparseShift15D:
    case AlgorithmKind::DenseRepl25D:
      return elision != Elision::LocalKernelFusion;
    case AlgorithmKind::SparseRepl25D:
    case AlgorithmKind::Baseline1D:
      return elision == Elision::None;
  }
  return false;
}

std::string unsupported_reason(AlgorithmKind kind, Mode mode) {
  if (kind == AlgorithmKind::Baseline1D && mode != Mode::SpMMA) {
    return "1D-Baseline supports SpMMA only (the paper's baseline runs "
           "FusedMM as two SpMM calls)";
  }
  return {};
}

std::string unsupported_reason(AlgorithmKind kind,
                               FusedOrientation orientation,
                               Elision elision) {
  if (!supports(kind, elision)) {
    return to_string(kind) + " does not support " + to_string(elision);
  }
  if (kind == AlgorithmKind::Baseline1D &&
      orientation != FusedOrientation::A) {
    return "1D-Baseline supports FusedMM orientation A only";
  }
  return {};
}

bool valid_config(AlgorithmKind kind, int p, int c) {
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
    case AlgorithmKind::SparseShift15D:
      return Grid15D::valid(p, c);
    case AlgorithmKind::DenseRepl25D:
    case AlgorithmKind::SparseRepl25D:
      return Grid25D::valid(p, c);
    case AlgorithmKind::Baseline1D:
      return p >= 1 && c == 1;
  }
  return false;
}

std::pair<int, int> shrink_config(AlgorithmKind kind, int p, int c) {
  for (int p2 = p - 1; p2 >= 1; --p2) {
    for (int c2 = std::min(c, p2); c2 >= 1; --c2) {
      if (valid_config(kind, p2, c2)) return {p2, c2};
    }
  }
  fail("shrink_config: no valid ", to_string(kind),
       " grid smaller than p=", p, " c=", c);
}

namespace detail {
namespace {

void check_shapes(AlgorithmKind kind, const CooMatrix& s,
                  const DenseMatrix& a, const DenseMatrix& b) {
  check(a.rows() == s.rows(), to_string(kind), ": A has ", a.rows(),
        " rows, S has ", s.rows());
  check(b.rows() == s.cols(), to_string(kind), ": B has ", b.rows(),
        " rows, S has ", s.cols(), " cols");
  check(a.cols() == b.cols(), to_string(kind), ": A width ", a.cols(),
        " != B width ", b.cols());
}

/// True when the options' fault plan injects rank crashes — the only
/// runs that build recovery stores or arm degradation.
bool can_crash(const AlgorithmOptions& options) {
  return options.faults != nullptr && options.faults->enabled() &&
         !options.faults->crashes.empty();
}

/// Run `attempt` and, when degradation is armed and the run loses a rank
/// for good, re-shard the padded problem onto the largest valid smaller
/// grid (balanced by plan_setup's rule on that grid) and re-run there,
/// fault-free, from a digest-verified checkpoint of the sparse input.
/// `rerun(sub, ctx, padded)` runs the call on the smaller driver's plan
/// and `unpad(out)` trims its output back to the caller's shape.
template <class Result, class Attempt, class Rerun, class Unpad>
Result run_degradable(const DistAlgorithm& algo, const CooMatrix& s,
                      const DenseMatrix& a, const DenseMatrix& b,
                      const Attempt& attempt, const Rerun& rerun,
                      const Unpad& unpad) {
  const AlgorithmOptions& options = algo.options();
  if (!options.degrade || !can_crash(options)) return attempt();
  CheckpointStore inputs(1);
  inputs.save_shard(0, {s.values().begin(), s.values().end()});
  try {
    return attempt();
  } catch (const WorldError& e) {
    if (e.crash().rank < 0) throw;
    const auto [p2, c2] = shrink_config(algo.kind(), algo.p(), algo.c());
    // The re-plan must not trust memory a crashed world touched.
    const auto saved = inputs.restore(0).values;
    CooMatrix healed = s;
    std::copy(saved.begin(), saved.end(), healed.values().begin());
    // The dead rank is gone from the new grid, so the shrunken world runs
    // fault-free.
    AlgorithmOptions sub_options = options;
    sub_options.faults = nullptr;
    sub_options.degrade = false;
    const auto sub = make_algorithm(algo.kind(), p2, c2, sub_options);
    const PaddedProblem padded =
        pad_problem(algo.kind(), p2, c2, healed, a, b);
    const auto plan = plan_setup(*sub, padded.s, padded.a.cols()).data;
    ExecContext ctx;
    ctx.plan = plan.get();
    Result out = rerun(*sub, ctx, padded);
    unpad(out);
    out.stats.set_degradation(e.crash().rank, algo.p(), p2);
    return out;
  }
}

} // namespace

KernelResult DistAlgorithm::run_kernel(const ExecContext& ctx, Mode mode,
                                       const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b) const {
  const std::string why = unsupported_reason(kind_, mode);
  check(why.empty(), why);
  check_shapes(kind_, s, a, b);
  const auto attempt = [&] {
    KernelResult out;
    if (mode == Mode::SDDMM) {
      out.sddmm_values.assign(static_cast<std::size_t>(s.nnz()), Scalar{0});
    } else {
      out.dense = DenseMatrix::uninitialized(
          mode == Mode::SpMMA ? s.rows() : s.cols(), a.cols());
    }
    do_run_kernel(ctx, mode, s, a, b, out);
    return out;
  };
  return run_degradable<KernelResult>(
      *this, s, a, b, attempt,
      [&](const DistAlgorithm& sub, const ExecContext& sub_ctx,
          const PaddedProblem& padded) {
        return sub.run_kernel(sub_ctx, mode, padded.s, padded.a, padded.b);
      },
      [&](KernelResult& out) {
        if (mode == Mode::SpMMA) {
          out.dense = unpad_dense(out.dense, s.rows(), a.cols());
        } else if (mode == Mode::SpMMB) {
          out.dense = unpad_dense(out.dense, s.cols(), a.cols());
        } else {
          // Padding adds no nonzeros, so the SDDMM values come back in
          // the original entry order already.
          check(out.sddmm_values.size() ==
                    static_cast<std::size_t>(s.nnz()),
                "degraded SDDMM returned ", out.sddmm_values.size(),
                " values for ", s.nnz(), " nonzeros");
        }
      });
}

FusedResult DistAlgorithm::run_fusedmm(const ExecContext& ctx,
                                       FusedOrientation orientation,
                                       Elision elision, const CooMatrix& s,
                                       const DenseMatrix& a,
                                       const DenseMatrix& b,
                                       int repetitions) const {
  const std::string why = unsupported_reason(kind_, orientation, elision);
  check(why.empty(), why);
  check(repetitions >= 1, "run_fusedmm: repetitions must be positive, got ",
        repetitions);
  check_shapes(kind_, s, a, b);
  const Index out_rows =
      orientation == FusedOrientation::A ? s.rows() : s.cols();
  const auto attempt = [&] {
    FusedResult out;
    out.output = DenseMatrix::uninitialized(out_rows, a.cols());
    do_run_fusedmm(ctx, orientation, elision, s, a, b, repetitions, out);
    return out;
  };
  return run_degradable<FusedResult>(
      *this, s, a, b, attempt,
      [&](const DistAlgorithm& sub, const ExecContext& sub_ctx,
          const PaddedProblem& padded) {
        return sub.run_fusedmm(sub_ctx, orientation, elision, padded.s,
                               padded.a, padded.b, repetitions);
      },
      [&](FusedResult& out) {
        out.output = unpad_dense(out.output, out_rows, a.cols());
      });
}

std::unique_ptr<DistAlgorithm> make_algorithm(AlgorithmKind kind, int p,
                                              int c,
                                              const AlgorithmOptions& options) {
  check(valid_config(kind, p, c), "make_algorithm: invalid grid ",
        to_string(kind), " p=", p, " c=", c);
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
      return make_dense_shift_15d(p, c, options);
    case AlgorithmKind::SparseShift15D:
      return make_sparse_shift_15d(p, c, options);
    case AlgorithmKind::DenseRepl25D:
      return make_dense_repl_25d(p, c, options);
    case AlgorithmKind::SparseRepl25D:
      return make_sparse_repl_25d(p, c, options);
    case AlgorithmKind::Baseline1D:
      return make_baseline_1d(p, c, options);
  }
  fail("make_algorithm: unknown algorithm kind");
}

CsrMatrix csr_with_values(const CsrMatrix& pattern,
                          std::span<const Scalar> values) {
  CsrMatrix out = pattern;
  check(values.size() == out.values().size(),
        "csr_with_values: got ", values.size(), " values for ",
        out.values().size(), " nonzeros");
  std::copy(values.begin(), values.end(), out.values().begin());
  return out;
}

ShardView::ShardView(const SparseShard& shard,
                     const std::vector<Scalar>* values, std::size_t offset)
    : shard_(&shard), values_(shard.coo.values) {
  if (values == nullptr) return;
  values_ = std::span<const Scalar>(*values).subspan(offset,
                                                     shard.coo.size());
  own_ = csr_with_values(shard.csr, values_);
}

Recovery::Recovery(const AlgorithmOptions& options, int p,
                   const std::function<StationaryShard(int rank)>& shard) {
  world_.faults = options.faults;
  world_.max_recoveries = options.max_recoveries;
  if (!can_crash(options)) return;
  replicas_.emplace(p);
  checkpoints_.emplace(p);
  for (int rank = 0; rank < p; ++rank) {
    StationaryShard mine = shard(rank);
    checkpoints_->save_shard(rank, mine.values);
    replicas_->set_shard(rank, std::move(mine.values),
                         std::move(mine.peers));
  }
  replicas_->finalize();
  world_.on_crash = [this](const CrashInfo& crash) {
    replicas_->scrub(crash.rank);
    if (replicas_->can_reconstruct(crash.rank)) {
      replicas_->reconstruct(crash.rank);
    } else {
      replicas_->adopt(crash.rank,
                       checkpoints_->restore(crash.rank).values);
    }
  };
}

void scatter_values(std::span<const Scalar> local,
                    std::span<const Index> entries,
                    std::span<Scalar> global) {
  check(local.size() == entries.size(),
        "scatter_values: ", local.size(), " values for ", entries.size(),
        " entry slots");
  for (std::size_t k = 0; k < local.size(); ++k) {
    global[static_cast<std::size_t>(entries[k])] = local[k];
  }
}

WorldStats run_in(SimWorld* world, int num_ranks,
                  const std::function<void(Comm&)>& body,
                  const WorldOptions& options) {
  if (world == nullptr) return run_spmd(num_ranks, body, options);
  check(world->size() == num_ranks, "run_in: resident world has ",
        world->size(), " ranks, driver needs ", num_ranks);
  return world->run(body, options);
}

ReplicationCache* usable_cache(const ExecContext& ctx,
                               const AlgorithmOptions& options) {
  if (ctx.cache == nullptr) return nullptr;
  if (options.faults != nullptr && options.faults->enabled()) return nullptr;
  return ctx.cache;
}

CacheUse cache_use(const ExecContext& ctx, const AlgorithmOptions& options) {
  CacheUse use;
  use.cache = usable_cache(ctx, options);
  if (use.cache != nullptr) {
    use.hit = use.cache->complete();
    use.cache->note_run(use.hit);
  }
  return use;
}

namespace {

/// The PETSc-like 1D block-row baseline (paper Section VI-A): S, A, and
/// B in block rows of m/p (resp. n/p); SpMMA fetches the remote B rows
/// its column support touches, point to point, with no replication to
/// amortize them. The communication plan (which rows each pair
/// exchanges) is computed at setup, like PETSc's cached VecScatter; the
/// fetch payloads are charged to Phase::Propagation.
class Baseline1D final : public DistAlgorithm {
 public:
  Baseline1D(int p, int c, const AlgorithmOptions& options)
      : DistAlgorithm(AlgorithmKind::Baseline1D, p, c, options) {}

  /// Rows only: a rank's shard columns are the sorted list of B rows it
  /// fetches, not a block, so balancing leaves the columns in place.
  BlockGrid block_grid() const override { return {p(), 1}; }

  std::shared_ptr<const PlanData> make_plan_data(
      const CooMatrix& s, Index r, const BlockMaps& maps) const override {
    return freeze_setup(make_setup(s, r, maps));
  }

 protected:
  /// unsupported_reason admits SpMMA and orientation-A FusedMM only.
  void do_run_kernel(const ExecContext& ctx, Mode, const CooMatrix&,
                     const DenseMatrix& a, const DenseMatrix& b,
                     KernelResult& out) const override {
    out.stats = run(ctx, a, b, /*fused=*/false, /*repetitions=*/1,
                    out.dense);
  }

  void do_run_fusedmm(const ExecContext& ctx, FusedOrientation, Elision,
                      const CooMatrix&, const DenseMatrix& a,
                      const DenseMatrix& b, int repetitions,
                      FusedResult& out) const override {
    out.stats = run(ctx, a, b, /*fused=*/true, repetitions, out.output);
  }

 private:
  struct Setup {
    Index m = 0, n = 0, r = 0;
    Index row_blk = 0, col_blk = 0;
    BlockMaps maps;  ///< planned row order (columns keep theirs)
    /// Per rank: local block CSR with columns remapped to positions in
    /// `cols` (the sorted distinct global columns it touches).
    std::vector<SparseShard> shards;
    std::vector<std::vector<Index>> cols;
    /// needs[k][o]: global B rows rank k fetches from owner o.
    std::vector<std::vector<std::vector<Index>>> needs;
  };

  Setup make_setup(const CooMatrix& s, Index r, const BlockMaps& maps) const {
    Setup su;
    su.m = s.rows();
    su.n = s.cols();
    su.r = r;
    su.row_blk = su.m / p();
    su.col_blk = su.n / p();
    su.maps = maps;
    su.cols.resize(static_cast<std::size_t>(p()));
    // Distinct column support per rank (entries are sorted, so a block's
    // columns arrive row-major; collect and sort-unique).
    std::vector<std::vector<Index>> support(
        static_cast<std::size_t>(p()));
    for (Index k = 0; k < s.nnz(); ++k) {
      const auto e = s.entry(k);
      support[static_cast<std::size_t>(maps.rows(e.row) / su.row_blk)]
          .push_back(e.col);
    }
    for (int k = 0; k < p(); ++k) {
      auto& cols = support[static_cast<std::size_t>(k)];
      std::sort(cols.begin(), cols.end());
      cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
      su.cols[static_cast<std::size_t>(k)] = std::move(cols);
    }
    su.shards = shard_coo(
        s, p(), [&](Index row, Index) { return static_cast<int>(row / su.row_blk); },
        [&](Index row, Index col) {
          const auto k = static_cast<std::size_t>(row / su.row_blk);
          const auto& cols = su.cols[k];
          const auto it = std::lower_bound(cols.begin(), cols.end(), col);
          return std::pair<Index, Index>(
              row % su.row_blk,
              static_cast<Index>(std::distance(cols.begin(), it)));
        },
        [&](int bucket) {
          return std::pair<Index, Index>(
              su.row_blk,
              static_cast<Index>(
                  su.cols[static_cast<std::size_t>(bucket)].size()));
        },
        maps);
    su.needs.assign(static_cast<std::size_t>(p()),
                    std::vector<std::vector<Index>>(
                        static_cast<std::size_t>(p())));
    for (int k = 0; k < p(); ++k) {
      for (const Index col : su.cols[static_cast<std::size_t>(k)]) {
        const int owner = static_cast<int>(col / su.col_blk);
        if (owner != k) {
          su.needs[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(owner)]
                      .push_back(col);
        }
      }
    }
    return su;
  }

  /// Fetch remote B rows per the plan and assemble the rank's compacted
  /// working set (distinct columns x r). The reply payload is a bare
  /// value run (row order fixed by the shared plan, so no index header
  /// travels) routed through the wire-codec layer.
  DenseMatrix fetch_b(Comm& comm, const Setup& su, const DenseMatrix& b,
                      const WireCodec& codec) const {
    const int rank = comm.rank();
    const auto& mine = su.cols[static_cast<std::size_t>(rank)];
    DenseMatrix work(static_cast<Index>(mine.size()), su.r);
    {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      // Buffered sends first (deadlock-free), then blocking receives.
      for (int t = 0; t < p(); ++t) {
        if (t == rank) continue;
        const auto& rows =
            su.needs[static_cast<std::size_t>(t)][static_cast<std::size_t>(
                rank)];
        if (rows.empty()) continue;
        std::vector<Scalar> values;
        values.reserve(rows.size() * static_cast<std::size_t>(su.r));
        for (const Index g : rows) {
          const auto row = b.row(g);
          values.insert(values.end(), row.begin(), row.end());
        }
        comm.send_words(t, kTagFetchReply, encode_values(values, codec));
      }
      for (int o = 0; o < p(); ++o) {
        if (o == rank) continue;
        const auto& rows =
            su.needs[static_cast<std::size_t>(rank)][static_cast<std::size_t>(
                o)];
        if (rows.empty()) continue;
        const auto values = decode_values(
            comm.recv_words(o, kTagFetchReply),
            static_cast<std::int64_t>(rows.size()) * su.r, codec);
        for (std::size_t k = 0; k < rows.size(); ++k) {
          const Index g = rows[k];
          const auto* row =
              values.data() + k * static_cast<std::size_t>(su.r);
          const auto it = std::lower_bound(mine.begin(), mine.end(), g);
          const auto local = static_cast<Index>(
              std::distance(mine.begin(), it));
          std::copy(row, row + su.r, work.row(local).begin());
        }
      }
    }
    // Local columns straight from the owner's block (no communication).
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const Index g = mine[i];
      if (g / su.col_blk == rank) {
        const auto row = b.row(g);
        std::copy(row.begin(), row.end(),
                  work.row(static_cast<Index>(i)).begin());
      }
    }
    return work;
  }

  /// The rank's stationary shard: its CSR values. The baseline holds no
  /// replicas, so it names no peers and a crash restores the checkpoint;
  /// the body then re-runs in full, like every family's (the one-shot
  /// crash triggers never re-fire).
  StationaryShard shard(const Setup& su, int rank) const {
    const auto values = su.shards[static_cast<std::size_t>(rank)].csr.values();
    return {{values.begin(), values.end()}, {}};
  }

  WorldStats run(const ExecContext& ctx, const DenseMatrix& a,
                 const DenseMatrix& b, bool fused, int repetitions,
                 DenseMatrix& out) const {
    const auto& su = planned_setup<Setup>(ctx, kind());
    const WireCodec& codec = options().codec;
    Recovery rec(options(), p(), [&](int rank) { return shard(su, rank); });
    return run_in(ctx.world, p(), [&](Comm& comm) {
      const int rank = comm.rank();
      const auto& shard = su.shards[static_cast<std::size_t>(rank)];
      const ShardView mine(shard, rec.live(rank));
      const CsrMatrix& scsr = mine.csr();
      for (int rep = 0; rep < repetitions; ++rep) {
        DenseMatrix work = fetch_b(comm, su, b, codec);
        if (fused) {
          // The unfused SDDMM + SpMM pair fetches the same rows twice;
          // the baseline has no elision to offer.
          work = fetch_b(comm, su, b, codec);
        }
        PhaseScope scope(comm.stats(), Phase::Computation);
        DenseMatrix block(su.row_blk, su.r);
        if (fused) {
          const DenseMatrix a_block = dense_block(
              a, rank * su.row_blk, su.row_blk, 0, su.r, su.maps.rows.from);
          std::vector<Scalar> dots(shard.coo.size(), Scalar{0});
          comm.stats().add_flops(
              masked_dot_products(scsr, a_block, work, dots));
          hadamard_values(scsr.values(), dots, dots);
          comm.stats().add_flops(shard.nnz());
          comm.stats().add_flops(
              spmm_a(csr_with_values(scsr, dots), work, block));
        } else {
          comm.stats().add_flops(spmm_a(scsr, work, block));
        }
        place_block(out, block, rank * su.row_blk, 0, su.maps.rows.from);
      }
    }, rec.world_options());
  }
};

} // namespace

std::unique_ptr<DistAlgorithm> make_baseline_1d(
    int p, int c, const AlgorithmOptions& options) {
  return std::make_unique<Baseline1D>(p, c, options);
}

} // namespace detail
} // namespace dsk
