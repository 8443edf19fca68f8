#pragma once
/// \file families.hpp
/// Internal: per-family driver factories (implemented in
/// algorithm_15d.cpp / algorithm_25d.cpp / algorithm.cpp) plus the small
/// helpers the family drivers share. Not part of the public API.

#include "dist/algorithm.hpp"
#include "dist/shards.hpp"
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

/// Copy of a shard's CSR with its stored values replaced (the FusedMM
/// SpMM phases run the SDDMM output values through the same pattern).
CsrMatrix csr_with_values(const CsrMatrix& pattern,
                          std::span<const Scalar> values);

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
