#include "runtime/recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "runtime/checkpoint.hpp"

namespace dsk {

int StepJournal::begin_loop(int rank, int steps) {
  auto& log = ranks_[static_cast<std::size_t>(rank)];
  const int id = log.cursor++;
  if (static_cast<std::size_t>(id) >= log.loops.size()) {
    log.loops.resize(static_cast<std::size_t>(id) + 1);
  }
  auto& loop = log.loops[static_cast<std::size_t>(id)];
  loop.started = true;
  loop.steps = steps;
  return id;
}

int StepJournal::resume_step(int rank, int loop_id) const {
  if (static_cast<std::size_t>(loop_id) >= resume_.size()) return -1;
  const int resume = resume_[static_cast<std::size_t>(loop_id)];
  if (resume < 0) return -1;
  // The rank's own snapshot at the resume step must exist (it does
  // whenever resume <= its last recorded step — resume is the global
  // minimum, so this only guards journal misuse).
  const auto& log = ranks_[static_cast<std::size_t>(rank)];
  if (static_cast<std::size_t>(loop_id) >= log.loops.size()) return -1;
  const auto& loop = log.loops[static_cast<std::size_t>(loop_id)];
  if (loop.last < resume) return -1;
  return resume;
}

const StepJournal::Snapshot& StepJournal::snapshot(int rank, int loop_id,
                                                   int step) const {
  const auto& loop = ranks_[static_cast<std::size_t>(rank)]
                         .loops[static_cast<std::size_t>(loop_id)];
  check(0 <= step && step <= loop.last,
        "StepJournal: no snapshot for rank ", rank, " loop ", loop_id,
        " step ", step);
  return loop.done[static_cast<std::size_t>(step)];
}

void StepJournal::record_step(int rank, int loop_id, int step,
                              Snapshot snapshot) {
  auto& loop = ranks_[static_cast<std::size_t>(rank)]
                   .loops[static_cast<std::size_t>(loop_id)];
  // Non-retained steps (checkpoint interval > 1) still advance the
  // completion watermark; seal() rounds the resume point down to a
  // retained snapshot.
  if (wants_snapshot(step)) {
    if (static_cast<std::size_t>(step) >= loop.done.size()) {
      loop.done.resize(static_cast<std::size_t>(step) + 1);
    }
    loop.done[static_cast<std::size_t>(step)] = std::move(snapshot);
  }
  if (step == loop.last + 1) loop.last = step;
}

void StepJournal::seal() {
  std::size_t loops = 0;
  for (const auto& r : ranks_) loops = std::max(loops, r.loops.size());
  resume_.assign(loops, -1);
  for (std::size_t id = 0; id < loops; ++id) {
    int resume = std::numeric_limits<int>::max();
    bool ok = true;
    for (const auto& r : ranks_) {
      // A rank that never began this loop (it crashed, or aborted,
      // earlier) pins the resume point to "from scratch".
      if (id >= r.loops.size() || !r.loops[id].started ||
          r.loops[id].last < 0) {
        ok = false;
        break;
      }
      resume = std::min(resume, r.loops[id].last);
    }
    if (ok) {
      // Round down to the newest step whose snapshot was retained
      // under the checkpoint interval.
      while (resume >= 0 && !wants_snapshot(resume)) --resume;
    }
    resume_[id] = ok && resume >= 0 ? resume : -1;
  }
}

void StepJournal::begin_attempt() {
  for (auto& r : ranks_) r.cursor = 0;
}

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

std::uint64_t ReplicaStore::digest(int rank) const {
  return entries_[static_cast<std::size_t>(rank)].digest;
}

} // namespace dsk
