#pragma once
/// \file replication_cache.hpp
/// Cross-call replicated-factor cache for the serving layer: the
/// generalization of `Elision::ReplicationReuse` from within one FusedMM
/// call to across calls. When a stationary factor (e.g. the trained A in
/// an ALS server) is replicated by a blocking fiber all-gather, each
/// rank parks its gathered working block here; later calls against the
/// same factor skip the replication collective entirely — zero
/// replication words and messages — as long as the cache is complete
/// and has not been invalidated since it was filled.
///
/// Fill discipline makes this safe under the simulated SPMD runtime:
/// the hit/miss decision is taken ONCE per run, on the driver thread,
/// before any rank starts (see detail::cache_use). A per-rank decision
/// could split a fiber into mixed hit/miss members — some skipping the
/// collective others are blocked in — and deadlock the ring. During a
/// filling (miss) run, ranks write disjoint slots (their own) and the
/// completion counter is only consulted by the NEXT run, after the
/// world joined.
///
/// The cache must be invalidated whenever the factor values change or
/// the shards move (a new Plan); the serving layer builds a fresh cache
/// whenever it re-plans, between batches, never while a world is
/// running.
/// Fault-armed runs bypass the cache (see detail::usable_cache).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "dense/dense_matrix.hpp"

namespace dsk {

class ReplicationCache {
 public:
  explicit ReplicationCache(int num_ranks)
      : slots_(static_cast<std::size_t>(num_ranks)) {}

  int num_ranks() const { return static_cast<int>(slots_.size()); }

  /// Drop all cached blocks. Call between runs only, after the factor
  /// values change.
  void invalidate() {
    for (auto& slot : slots_) slot.reset();
    filled_.store(0, std::memory_order_release);
  }

  /// Every rank has parked its block — the next run may hit.
  bool complete() const {
    return filled_.load(std::memory_order_acquire) == num_ranks();
  }

  /// The cached replicated block for `rank`, shared: a hit hands the
  /// kernels the parked block itself, not a copy. Only valid when
  /// complete().
  std::shared_ptr<const DenseMatrix> block(int rank) const {
    const auto& slot = slots_[static_cast<std::size_t>(rank)];
    check(slot != nullptr, "ReplicationCache: no block cached for rank ",
          rank);
    return slot;
  }

  /// Park `rank`'s freshly gathered block, shared with the run that
  /// gathered it (called from rank threads on a miss run; each rank
  /// writes only its own slot, first write wins).
  void store(int rank, std::shared_ptr<const DenseMatrix> parked) {
    auto& slot = slots_[static_cast<std::size_t>(rank)];
    if (slot != nullptr) return;
    slot = std::move(parked);
    filled_.fetch_add(1, std::memory_order_release);
  }

  /// Driver-thread accounting: one cache-consulting run happened.
  void note_run(bool hit) { (hit ? hits_ : misses_) += 1; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::vector<std::shared_ptr<const DenseMatrix>> slots_;
  std::atomic<int> filled_{0};
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

} // namespace dsk
