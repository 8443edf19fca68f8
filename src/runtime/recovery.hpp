#pragma once
/// \file recovery.hpp
/// Crash-recovery state for the simulated runtime: a replica store
/// modeling the per-rank sparse-value shards that the 2.5D families hold
/// redundantly (row-ring copies for dense replication, fiber copies for
/// sparse replication) — the redundancy a crashed rank's shard is rebuilt
/// from. A recovered world re-runs the whole call on the rebuilt shard.

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "runtime/fault.hpp"

namespace dsk {

/// Per-rank copies of the replicated sparse-value shards of a 2.5D
/// family, with FNV-1a digests. Each rank owns one shard and retains
/// replica copies of its peers' shards (what the row ring / fiber
/// traffic materializes on every kernel call). A crash scrubs the rank's
/// memory — owned shard and retained replicas; reconstruct() rebuilds
/// the shard from a digest-valid surviving replica, or throws WorldError
/// when no peer holds one (q == 1 rings / c == 1 fibers have no
/// redundancy to recover from).
///
/// All mutation happens between world attempts on the recovery thread;
/// during a run the rank threads only read their own shards.
class ReplicaStore {
 public:
  explicit ReplicaStore(int num_ranks);

  /// Register rank's owned shard and the peers that replicate it.
  void set_shard(int rank, std::vector<Scalar> values,
                 std::vector<int> peers);

  /// Materialize every peer's replica copies and the shard digests. Call
  /// once after all set_shard calls, before the world runs.
  void finalize();

  /// The rank's live shard — fault-mode kernels read values through
  /// this instead of the shared setup tables.
  const std::vector<Scalar>& values(int rank) const;

  /// Simulate the crash: NaN-fill the rank's owned shard and discard the
  /// replica copies it held for others.
  void scrub(int rank);

  struct Repair {
    int source_rank = -1;
    std::uint64_t words = 0;
  };
  /// Rebuild the rank's shard (and its retained replicas) from a
  /// digest-valid peer. Throws WorldError when no valid replica survives.
  Repair reconstruct(int rank);

  /// True when reconstruct() would succeed: some surviving peer holds a
  /// digest-valid replica of the rank's shard.
  bool can_reconstruct(int rank) const;

  /// Fallback when no replica survives: install externally checkpointed
  /// values as the rank's shard (verified against the recorded digest)
  /// and refill the replica copies the rank retains for others. The
  /// Repair's source_rank is -1 — the bytes came from stable storage,
  /// not a peer.
  Repair adopt(int rank, std::vector<Scalar> values);

 private:
  struct Entry {
    std::vector<Scalar> owned;
    std::vector<int> peers;
    std::uint64_t digest = 0;
    bool valid = false;
    /// Replica copies this rank retains, keyed by the owner rank.
    std::map<int, std::vector<Scalar>> replicas;
  };
  std::vector<Entry> entries_;
};

} // namespace dsk
