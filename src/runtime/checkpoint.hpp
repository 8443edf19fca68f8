#pragma once
/// \file checkpoint.hpp
/// Digest-verified checkpoint store: the stable copy of each rank's shard
/// values that crash recovery falls back to when no replica peer survives
/// (q == 1 rings, c == 1 fibers, or the unreplicated 1.5D/1D families,
/// which have no redundancy at all). The store keeps an in-memory "stable
/// store" snapshot taken before the world runs; when `DSK_CKPT_DIR` names
/// a directory, each shard is also persisted there as a binary file and
/// restores prefer the on-disk copy. Every restore re-verifies the
/// FNV-1a fingerprint recorded at save time, so a corrupted stable copy
/// surfaces as a structured WorldError instead of silently poisoning the
/// recovered run.
///
/// Threading matches ReplicaStore: shards are saved before the world
/// starts, rank threads only read their own live slice, and scrub/restore
/// run between attempts on the recovery thread.

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
  /// mirrored to `<dir>/<stem>_<rank>.ckpt` and restores prefer the
  /// file. Stores that can be alive at the same time use distinct stems,
  /// so neither overwrites the other's files.
  explicit CheckpointStore(int num_ranks, std::string stem = "shard");

  /// Snapshot the rank's shard values into the stable store (and the
  /// disk backend when enabled). The live copy kernels read through
  /// values() starts out identical.
  void save_shard(int rank, std::vector<Scalar> values);

  /// The rank's live shard — fault-mode kernels read values through
  /// this instead of the shared setup tables.
  const std::vector<Scalar>& values(int rank) const;

  /// Simulate the crash: NaN-fill the rank's live copy. The stable store
  /// is untouched — that is the point of a checkpoint.
  void scrub(int rank);

  struct Restore {
    std::uint64_t words = 0;
    bool from_disk = false;
  };
  /// Rebuild the rank's live copy from the stable store (or the disk
  /// file when the backend is enabled), re-verifying the recorded
  /// digest. Throws WorldError on a missing or corrupted checkpoint.
  Restore restore(int rank);

  std::uint64_t digest(int rank) const;
  bool saved(int rank) const;

  int saves() const { return saves_; }
  int restores() const { return restores_; }

 private:
  std::string shard_path(int rank) const;
  void write_disk(int rank) const;
  std::vector<Scalar> read_disk(int rank) const;

  struct Entry {
    std::vector<Scalar> live;   ///< what kernels read; scrubbed on crash
    std::vector<Scalar> stable; ///< the checkpoint itself
    std::uint64_t digest = 0;
    bool present = false;
  };
  std::vector<Entry> entries_;
  std::string dir_; ///< empty = in-memory only
  std::string stem_;
  int saves_ = 0;
  int restores_ = 0;
};

} // namespace dsk
