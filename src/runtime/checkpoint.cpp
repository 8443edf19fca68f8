#include "runtime/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "runtime/fault.hpp"

namespace dsk {

namespace {

/// File layout: [magic, rank, digest, count, count Scalar words].
constexpr std::uint64_t kCkptMagic = 0x64736b2d636b7074ull; // "dsk-ckpt"

/// Numbers the stores of the process for their file names.
std::atomic<std::uint64_t> g_stores{0};
/// Restores served from disk, over every store (disk_restores()).
std::atomic<int> g_disk_restores{0};

[[noreturn]] void restore_error(int rank, const std::string& why) {
  CrashInfo info;
  info.rank = rank;
  throw WorldError("checkpoint restore failed for rank " +
                       std::to_string(rank) + ": " + why,
                   info, "");
}

} // namespace

std::uint64_t values_digest(std::span<const Scalar> values) {
  static_assert(sizeof(Scalar) == sizeof(std::uint64_t));
  if (values.empty()) return fnv1a_words(nullptr, 0);
  std::vector<std::uint64_t> words(values.size());
  std::memcpy(words.data(), values.data(), values.size() * sizeof(Scalar));
  return fnv1a_words(words.data(), words.size());
}

CheckpointStore::CheckpointStore(int num_ranks)
    : entries_(static_cast<std::size_t>(num_ranks)) {
  if (const char* dir = std::getenv("DSK_CKPT_DIR")) {
    prefix_ = std::string(dir) + "/ckpt_" + std::to_string(::getpid()) +
              "_" + std::to_string(g_stores.fetch_add(1)) + "_";
  }
}

CheckpointStore::~CheckpointStore() {
  if (prefix_.empty()) return;
  for (std::size_t rank = 0; rank < entries_.size(); ++rank) {
    if (entries_[rank].present) {
      std::remove(shard_path(static_cast<int>(rank)).c_str());
    }
  }
}

int CheckpointStore::disk_restores() { return g_disk_restores.load(); }

std::string CheckpointStore::shard_path(int rank) const {
  if (prefix_.empty()) return {};
  return prefix_ + std::to_string(rank) + ".ckpt";
}

void CheckpointStore::write_disk(int rank) const {
  const auto& e = entries_[static_cast<std::size_t>(rank)];
  const std::string path = shard_path(rank);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  check(f != nullptr, "CheckpointStore: cannot write ", path);
  const std::uint64_t header[4] = {
      kCkptMagic, static_cast<std::uint64_t>(rank), e.digest,
      static_cast<std::uint64_t>(e.stable.size())};
  bool ok = std::fwrite(header, sizeof(std::uint64_t), 4, f) == 4;
  ok = ok && (e.stable.empty() ||
              std::fwrite(e.stable.data(), sizeof(Scalar),
                          e.stable.size(), f) == e.stable.size());
  ok = std::fclose(f) == 0 && ok;
  check(ok, "CheckpointStore: short write to ", path);
}

std::vector<Scalar> CheckpointStore::read_disk(int rank) const {
  const auto& e = entries_[static_cast<std::size_t>(rank)];
  const std::string path = shard_path(rank);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) restore_error(rank, "missing checkpoint file " + path);
  // The file's count word is untrusted: nothing is sized from it until
  // the whole header matches what save_shard recorded for this rank.
  std::uint64_t header[4] = {0, 0, 0, 0};
  bool ok = std::fread(header, sizeof(std::uint64_t), 4, f) == 4 &&
            header[0] == kCkptMagic &&
            header[1] == static_cast<std::uint64_t>(rank) &&
            header[2] == e.digest &&
            header[3] == static_cast<std::uint64_t>(e.stable.size());
  std::vector<Scalar> values;
  if (ok) {
    values.resize(e.stable.size());
    ok = values.empty() ||
         std::fread(values.data(), sizeof(Scalar), values.size(), f) ==
             values.size();
  }
  std::fclose(f);
  if (!ok) restore_error(rank, "corrupted checkpoint file " + path);
  return values;
}

void CheckpointStore::save_shard(int rank, std::vector<Scalar> values) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  e.stable = std::move(values);
  e.live = e.stable;
  e.digest = values_digest(e.stable);
  e.present = true;
  ++saves_;
  if (!prefix_.empty()) write_disk(rank);
}

const std::vector<Scalar>& CheckpointStore::values(int rank) const {
  return entries_[static_cast<std::size_t>(rank)].live;
}

void CheckpointStore::scrub(int rank) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  std::fill(e.live.begin(), e.live.end(),
            std::numeric_limits<Scalar>::quiet_NaN());
}

CheckpointStore::Restore CheckpointStore::restore(int rank) {
  auto& e = entries_[static_cast<std::size_t>(rank)];
  if (!e.present) restore_error(rank, "no checkpoint was ever saved");
  Restore out;
  std::vector<Scalar> stable;
  if (!prefix_.empty()) {
    stable = read_disk(rank);
    out.from_disk = true;
    ++g_disk_restores;
  } else {
    stable = e.stable;
  }
  // Re-fingerprint the content itself: a checkpoint whose bytes rotted
  // after save must not be handed to the recovered rank.
  if (values_digest(stable) != e.digest) {
    restore_error(rank, "stable-store digest mismatch");
  }
  out.words = static_cast<std::uint64_t>(stable.size());
  e.live = std::move(stable);
  ++restores_;
  return out;
}

std::uint64_t CheckpointStore::digest(int rank) const {
  return entries_[static_cast<std::size_t>(rank)].digest;
}

bool CheckpointStore::saved(int rank) const {
  return entries_[static_cast<std::size_t>(rank)].present;
}

} // namespace dsk
