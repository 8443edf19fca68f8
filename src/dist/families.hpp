#pragma once
/// \file families.hpp
/// Internal: per-family driver factories (implemented in
/// algorithm_15d.cpp / algorithm_25d.cpp / algorithm.cpp) plus what the
/// family drivers share: typed plan snapshots, crash recovery, and the
/// view of a shard with the values its kernels read. Not part of the
/// public API.

#include <functional>
#include <optional>

#include "common/error.hpp"
#include "dist/algorithm.hpp"
#include "dist/shards.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/recovery.hpp"
#include "runtime/world.hpp"

namespace dsk::detail {

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
/// drivers' run paths all go through here so plan execution against a
/// resident SimWorld and classic per-call execution share one code path.
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
