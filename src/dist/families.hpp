#pragma once
/// \file families.hpp
/// Internal: the driver interface every family implements, the factory
/// and per-family constructors (implemented in algorithm_15d.cpp /
/// algorithm_25d.cpp / algorithm.cpp), plus what the family drivers
/// share: typed plan snapshots, crash recovery, and the view of a shard
/// with the values its kernels read. Not part of the public API: callers
/// run the drivers through `make_plan` + `Plan::execute` (dist/plan.hpp).

#include <functional>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "dist/algorithm.hpp"
#include "dist/replication_cache.hpp"
#include "dist/shards.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"
#include "runtime/world.hpp"

namespace dsk::detail {

/// Type-erased per-driver setup snapshot (grid, shards, support unions)
/// built once by `DistAlgorithm::make_plan_data` and reusable across
/// calls. Each driver derives its own snapshot and rejects foreign ones,
/// so a plan can only be executed by the driver configuration that built
/// it. Immutable after construction.
struct PlanData {
  PlanData() = default;
  PlanData(const PlanData&) = delete;
  PlanData& operator=(const PlanData&) = delete;
  virtual ~PlanData() = default;
};

/// Per-call execution context. `plan` is the prebuilt setup snapshot;
/// `world` is an optional resident SimWorld to run on instead of a
/// one-shot world (must match the driver's p); `cache` is an optional
/// cross-call replicated-factor cache (see dist/replication_cache.hpp)
/// consulted by the blocking replication prologues — ignored by families
/// whose replication is already sparsity-sized and whenever faults are
/// armed.
struct ExecContext {
  const PlanData* plan = nullptr;
  SimWorld* world = nullptr;
  ReplicationCache* cache = nullptr;
};

class DistAlgorithm {
 public:
  DistAlgorithm(AlgorithmKind kind, int p, int c,
                const AlgorithmOptions& options)
      : kind_(kind), p_(p), c_(c), options_(options) {}
  virtual ~DistAlgorithm() = default;

  AlgorithmKind kind() const { return kind_; }
  int p() const { return p_; }
  int c() const { return c_; }
  const AlgorithmOptions& options() const { return options_; }

  /// Build this driver's setup snapshot for (s, r) without running
  /// anything: grid placement, shards, and row/col support unions (each
  /// run still derives its propagation compression schedules from them).
  /// s must be sorted with unique entries and (m, n, r) must pass
  /// validate_dims; make_plan checks both before calling this.
  virtual std::shared_ptr<const PlanData> make_plan_data(const CooMatrix& s,
                                                         Index r) const = 0;

  /// Run one unified kernel against ctx.plan, which must come from this
  /// driver configuration's make_plan_data for the same (s, r), and
  /// gather the global result. a is sized s.rows() x r, b s.cols() x r;
  /// SpMMA reads only b, SpMMB only a, SDDMM both. Checks the op and the
  /// dense shapes; S itself is pinned by the Plan's fingerprint.
  KernelResult run_kernel(const ExecContext& ctx, Mode mode,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b) const;

  /// Run FusedMM (SDDMM feeding SpMM) `repetitions` times with the given
  /// eliding strategy; communication scales exactly linearly in
  /// repetitions and the output is that of a single call.
  FusedResult run_fusedmm(const ExecContext& ctx,
                          FusedOrientation orientation, Elision elision,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b, int repetitions = 1) const;

 protected:
  /// Run one call into `out`, whose output arrives allocated: a dense
  /// result unwritten (the ranks' disjoint blocks cover every row), SDDMM
  /// values zeroed. The family fills it and sets out.stats.
  virtual void do_run_kernel(const ExecContext& ctx, Mode mode,
                             const CooMatrix& s, const DenseMatrix& a,
                             const DenseMatrix& b,
                             KernelResult& out) const = 0;
  virtual void do_run_fusedmm(const ExecContext& ctx,
                              FusedOrientation orientation, Elision elision,
                              const CooMatrix& s, const DenseMatrix& a,
                              const DenseMatrix& b, int repetitions,
                              FusedResult& out) const = 0;

 private:
  AlgorithmKind kind_;
  int p_;
  int c_;
  AlgorithmOptions options_;
};

/// Build a driver; throws on invalid (p, c).
std::unique_ptr<DistAlgorithm> make_algorithm(
    AlgorithmKind kind, int p, int c, const AlgorithmOptions& options = {});

std::unique_ptr<DistAlgorithm> make_dense_shift_15d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_sparse_shift_15d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_dense_repl_25d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_sparse_repl_25d(
    int p, int c, const AlgorithmOptions& options);
std::unique_ptr<DistAlgorithm> make_baseline_1d(
    int p, int c, const AlgorithmOptions& options);

/// A family's Setup frozen as plan data. Every family's Setup is its own
/// type, so planned_setup rejects a plan that another family built.
template <class Setup>
struct PlannedSetup final : PlanData {
  explicit PlannedSetup(Setup s) : setup(std::move(s)) {}
  Setup setup;
};

template <class Setup>
std::shared_ptr<const PlanData> freeze_setup(Setup setup) {
  return std::make_shared<const PlannedSetup<Setup>>(std::move(setup));
}

/// The Setup inside ctx.plan; throws unless `kind`'s driver built it.
template <class Setup>
const Setup& planned_setup(const ExecContext& ctx, AlgorithmKind kind) {
  const auto* plan = dynamic_cast<const PlannedSetup<Setup>*>(ctx.plan);
  check(plan != nullptr, to_string(kind),
        ": ExecContext plan was not built by this driver");
  return plan->setup;
}

/// Copy of a shard's CSR with its stored values replaced (the FusedMM
/// SpMM phases run the SDDMM output values through the same pattern).
CsrMatrix csr_with_values(const CsrMatrix& pattern,
                          std::span<const Scalar> values);

/// A shard with the values its kernels read. Built from null values it
/// is the shard as planned, read in place. Otherwise it carries
/// (*values)[offset, offset + nnz) — the recovery store's live copy, or
/// the SDDMM output of a FusedMM pass — and a CSR holding them.
class ShardView {
 public:
  ShardView(const SparseShard& shard, const std::vector<Scalar>* values,
            std::size_t offset = 0);

  std::span<const Scalar> values() const { return values_; }
  const CsrMatrix& csr() const { return own_ ? *own_ : shard_->csr; }

 private:
  const SparseShard* shard_;
  std::span<const Scalar> values_;
  std::optional<CsrMatrix> own_;
};

/// What one rank holds that a crash scrubs and recovery must restore:
/// its share of S's values, and the peers that keep a copy of them (none
/// for the unreplicated 1.5D and 1D families).
struct StationaryShard {
  std::vector<Scalar> values;
  std::vector<int> peers;
};

/// One run's crash recovery, the same policy for every family. Only when
/// the fault plan injects crashes does it ask for each rank's shard and
/// snapshot it into a replica store and a digest-verified checkpoint
/// store. On a crash it scrubs the rank, rebuilds the shard from a
/// digest-valid surviving peer if there is one, and otherwise restores
/// the checkpoint and adopts it back into the replica store.
/// Neither copyable nor movable: on_crash points into the object.
class Recovery {
 public:
  Recovery(const AlgorithmOptions& options, int p,
           const std::function<StationaryShard(int rank)>& shard);
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  /// The fault plan, recovery budget and on_crash policy to run the
  /// world with.
  const WorldOptions& world_options() const { return world_; }

  /// The rank's live shard values, which the kernels must read so that
  /// the scrub and rebuild touch the data that computes; null when the
  /// run cannot crash (the kernels read the setup tables then).
  const std::vector<Scalar>* live(int rank) const {
    return replicas_ ? &replicas_->values(rank) : nullptr;
  }

 private:
  std::optional<ReplicaStore> replicas_;
  std::optional<CheckpointStore> checkpoints_;
  WorldOptions world_;
};

/// Scatter per-entry results into the global SDDMM output vector.
void scatter_values(std::span<const Scalar> local,
                    std::span<const Index> entries,
                    std::span<Scalar> global);

/// Run the SPMD body on the resident world if the ExecContext carries
/// one (its size must match num_ranks), else on a one-shot world. The
/// drivers' run paths all go through here so executes with and without a
/// resident SimWorld share one code path.
WorldStats run_in(SimWorld* world, int num_ranks,
                  const std::function<void(Comm&)>& body,
                  const WorldOptions& options);

/// The replication cache to consult for this run, or null. Cross-call
/// caching is disabled whenever faults are armed (a crashed attempt
/// could abandon a partial fill).
ReplicationCache* usable_cache(const ExecContext& ctx,
                               const AlgorithmOptions& options);

/// One run's cache decision, taken once on the driver thread so every
/// rank agrees: on a hit, the blocking replicate paths return the
/// parked block without touching the wire; on a miss they gather as
/// usual and park the result for the next run.
struct CacheUse {
  ReplicationCache* cache = nullptr;
  bool hit = false;
};

/// Resolve the cache for this run and record the hit/miss. Call only
/// from runs whose mode actually replicates a stationary factor.
CacheUse cache_use(const ExecContext& ctx, const AlgorithmOptions& options);

} // namespace dsk::detail
