#pragma once
/// \file checkpoint.hpp
/// Digest-verified checkpoint store: the stable copy of each rank's shard
/// values that crash recovery falls back to when no replica peer survives
/// (q == 1 rings, c == 1 fibers, or the unreplicated 1.5D/1D families,
/// which have no redundancy at all). The store keeps one in-memory copy
/// per shard, taken before the world runs; when `DSK_CKPT_DIR` names a
/// directory, each shard is also persisted there as a binary file and
/// restores read the file instead. Every restore re-verifies the FNV-1a
/// fingerprint recorded at save time, so a corrupted stable copy
/// surfaces as a structured WorldError instead of silently poisoning the
/// recovered run. The kernels never read this store: the caller installs
/// a restore's values where they compute (ReplicaStore::adopt).
///
/// Threading: shards are saved before the world starts and restores run
/// between attempts on the recovery thread.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dsk {

/// FNV-1a fingerprint of a scalar slice — the shared shard digest of the
/// replica and checkpoint stores.
std::uint64_t values_digest(std::span<const Scalar> values);

class CheckpointStore {
 public:
  /// Reads `DSK_CKPT_DIR` once at construction; when set, shards are
  /// mirrored to files in that directory (see shard_path) and restores
  /// prefer the file. The destructor removes the files the store wrote.
  explicit CheckpointStore(int num_ranks);
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Snapshot the rank's shard values into the stable store (and the
  /// disk backend when enabled).
  void save_shard(int rank, std::vector<Scalar> values);

  struct Restore {
    std::vector<Scalar> values;
    bool from_disk = false;
  };
  /// The rank's saved values, read from the stable store (or the disk
  /// file when the backend is enabled) and re-verified against the
  /// recorded digest. Throws WorldError on a missing or corrupted
  /// checkpoint.
  Restore restore(int rank);

  bool saved(int rank) const;

  int saves() const { return saves_; }
  int restores() const { return restores_; }

  /// Restores served from a disk file, summed over every store of this
  /// process (the files themselves are gone once their store is).
  static int disk_restores();

  /// The rank's file under the disk backend, or "" when it is off:
  /// `<dir>/ckpt_<pid>_<store>_<rank>.ckpt`, where <store> numbers the
  /// stores of the process, so no two live stores — in one process or in
  /// processes sharing the directory — write the same file.
  std::string shard_path(int rank) const;

 private:
  void write_disk(int rank) const;
  std::vector<Scalar> read_disk(int rank) const;

  struct Entry {
    std::vector<Scalar> stable; ///< the checkpoint itself
    std::uint64_t digest = 0;
    bool present = false;
  };
  std::vector<Entry> entries_;
  std::string prefix_; ///< `<dir>/ckpt_<pid>_<store>_`; empty = in memory
  int saves_ = 0;
  int restores_ = 0;
};

} // namespace dsk
