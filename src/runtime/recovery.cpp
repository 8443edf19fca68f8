#include "runtime/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "runtime/checkpoint.hpp"

namespace dsk {

ReplicaStore::ReplicaStore(int num_ranks)
    : entries_(static_cast<std::size_t>(num_ranks)) {}

void ReplicaStore::set_shard(int rank, std::vector<Scalar> values,
                             std::vector<int> peers) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  e.owned = std::move(values);
  e.peers = std::move(peers);
}

void ReplicaStore::finalize() {
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    auto& e = entries_[r];
    e.digest = values_digest(e.owned);
    e.valid = true;
    for (const int peer : e.peers) {
      entries_[static_cast<std::size_t>(peer)]
          .replicas[static_cast<int>(r)] = e.owned;
    }
  }
}

const std::vector<Scalar>& ReplicaStore::values(int rank) const {
  return entries_[static_cast<std::size_t>(rank)].owned;
}

void ReplicaStore::scrub(int rank) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  std::fill(e.owned.begin(), e.owned.end(),
            std::numeric_limits<Scalar>::quiet_NaN());
  e.valid = false;
  e.replicas.clear();
}

ReplicaStore::Repair ReplicaStore::reconstruct(int rank) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  Repair repair;
  for (const int peer : e.peers) {
    const auto& holder = entries_[static_cast<std::size_t>(peer)];
    const auto it = holder.replicas.find(rank);
    if (it == holder.replicas.end()) continue;
    if (values_digest(it->second) != e.digest) continue;
    e.owned = it->second;
    e.valid = true;
    repair.source_rank = peer;
    repair.words = static_cast<std::uint64_t>(e.owned.size());
    break;
  }
  if (!e.valid) {
    CrashInfo info;
    info.rank = rank;
    throw WorldError(
        "replica recovery failed: no surviving peer holds a valid copy "
        "of rank " +
            std::to_string(rank) +
            "'s shard (replication factor 1 has no redundancy)",
        info, "");
  }
  // The re-spawned rank also re-fetches the replica copies it is
  // responsible for, from their (intact) owners.
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    const auto& owner = entries_[r];
    for (const int peer : owner.peers) {
      if (peer != rank) continue;
      check(owner.valid, "ReplicaStore: owner ", r,
            " invalid while refilling replicas");
      e.replicas[static_cast<int>(r)] = owner.owned;
      repair.words += static_cast<std::uint64_t>(owner.owned.size());
    }
  }
  return repair;
}

bool ReplicaStore::can_reconstruct(int rank) const {
  const auto& e = entries_[static_cast<std::size_t>(rank)];
  for (const int peer : e.peers) {
    const auto& holder = entries_[static_cast<std::size_t>(peer)];
    const auto it = holder.replicas.find(rank);
    if (it == holder.replicas.end()) continue;
    if (values_digest(it->second) == e.digest) return true;
  }
  return false;
}

ReplicaStore::Repair ReplicaStore::adopt(int rank,
                                         std::vector<Scalar> values) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  if (values_digest(values) != e.digest) {
    CrashInfo info;
    info.rank = rank;
    throw WorldError("checkpoint adoption failed: restored values for "
                     "rank " +
                         std::to_string(rank) +
                         " do not match the shard's recorded digest",
                     info, "");
  }
  e.owned = std::move(values);
  e.valid = true;
  Repair repair;
  repair.words = static_cast<std::uint64_t>(e.owned.size());
  // Same replica refill a peer-sourced reconstruct performs: the
  // re-spawned rank re-fetches the copies it retains for others.
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    const auto& owner = entries_[r];
    for (const int peer : owner.peers) {
      if (peer != rank) continue;
      check(owner.valid, "ReplicaStore: owner ", r,
            " invalid while refilling replicas");
      e.replicas[static_cast<int>(r)] = owner.owned;
      repair.words += static_cast<std::uint64_t>(owner.owned.size());
    }
  }
  return repair;
}

} // namespace dsk
