#pragma once
/// \file comm.hpp
/// Rank-local handle to the simulated world: point-to-point messaging,
/// barrier, and accounting. Mirrors the MPI surface the paper's
/// implementation uses (MPI_Isend/Irecv for point-to-point shifts) with
/// word-exact cost counting. Sends are buffered and never block, so
/// shift exchanges cannot deadlock; receives block until delivery.

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "runtime/fault.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/stats.hpp"

namespace dsk {

class SimWorld;
class ReliableTransport;
class StepJournal;

/// Distinct tag spaces keep independent protocols from interleaving.
/// Messages between a (source, tag) pair are FIFO, matching MPI's
/// non-overtaking guarantee, so repeated steps of one protocol share a tag.
enum CommTag : int {
  kTagUser = 0,
  kTagShift = 1,
  kTagAllgather = 2,
  kTagReduceScatter = 3,
  kTagBroadcast = 4,
  kTagGather = 5,
  kTagFetch = 6,
  kTagFetchReply = 7,
  /// Second shift channel: the 2.5D loops circulate a sparse block and a
  /// dense block concurrently (along different rings); separate tag
  /// spaces keep the two streams from matching each other's receives.
  kTagShiftDense = 8,
  /// Row-sparse replication collectives (allgatherv_rows /
  /// reduce_scatter_rows): point-to-point row subsets, distinct from the
  /// ring tags so a dense fallback and a sparse call never interleave.
  kTagSparseGather = 9,
  kTagSparseReduce = 10,
};

class Comm {
 public:
  Comm(SimWorld& world, int rank, RankStats& stats)
      : world_(&world), rank_(rank), stats_(&stats) {}

  int rank() const { return rank_; }
  int size() const;
  RankStats& stats() { return *stats_; }

  /// Raw word-vector send/receive. Every call is one message; words are
  /// charged to the rank's current phase at both endpoints.
  void send_words(int destination, int tag, MessageWords words);
  MessageWords recv_words(int source, int tag);

  /// Typed span send/receive for 8-byte trivially copyable types
  /// (Scalar, Index).
  template <typename T>
  void send(int destination, int tag, std::span<const T> data) {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    MessageWords words(data.size());
    if (!data.empty()) {
      std::memcpy(words.data(), data.data(), data.size() * sizeof(T));
    }
    send_words(destination, tag, std::move(words));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    const MessageWords words = recv_words(source, tag);
    std::vector<T> out(words.size());
    if (!words.empty()) {
      std::memcpy(out.data(), words.data(), words.size() * sizeof(T));
    }
    return out;
  }

  /// Cyclic-shift exchange: send to `destination`, receive from `source`
  /// (both may equal this rank, in which case the data is passed through
  /// without being charged as communication).
  MessageWords shift_exchange(int destination, int source,
                              MessageWords words, int tag = kTagShift);

  /// Global barrier across all ranks (no cost charged; the paper's model
  /// ignores synchronization cost next to bandwidth terms).
  void barrier();

  // --- fault-mode plumbing, set by SimWorld::run (all null in the
  // default fault-free mode, where send/recv take the legacy zero-
  // overhead path and move exactly the same words as ever) ---
  void set_fault_context(FaultInjector* injector,
                         ReliableTransport* transport,
                         StepJournal* journal) {
    injector_ = injector;
    transport_ = transport;
    journal_ = journal;
  }
  StepJournal* journal() { return journal_; }

  /// Crash trigger at a shift-step boundary (run_shift_loop calls this
  /// when entering each step; no-op without an injector).
  void on_shift_step(int step) {
    if (injector_ != nullptr) {
      injector_->on_shift_step(rank_, stats_->current_phase(), step);
    }
  }

  /// Per-rank run_shift_loop call counter — the journal's loop ids. The
  /// SPMD bodies are symmetric, so ids line up across ranks.
  int next_loop_id() { return next_loop_id_++; }

 private:
  SimWorld* world_;
  int rank_;
  RankStats* stats_;
  FaultInjector* injector_ = nullptr;
  ReliableTransport* transport_ = nullptr;
  StepJournal* journal_ = nullptr;
  int next_loop_id_ = 0;
};

/// Pack/unpack helpers for messages carrying several arrays (e.g. a COO
/// block's rows, cols, and values in a single 3*nnz-word message).
class WordPacker {
 public:
  template <typename T>
  WordPacker& put(std::span<const T> data) {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    const std::size_t old = words_.size();
    words_.resize(old + data.size());
    if (!data.empty()) {
      std::memcpy(words_.data() + old, data.data(),
                  data.size() * sizeof(T));
    }
    return *this;
  }
  /// Single header word (e.g. a length prefix).
  WordPacker& put_count(std::uint64_t value) {
    words_.push_back(value);
    return *this;
  }
  MessageWords take() { return std::move(words_); }

 private:
  MessageWords words_;
};

class WordReader {
 public:
  explicit WordReader(const MessageWords& words) : words_(words) {}

  std::uint64_t take_count() {
    check(cursor_ < words_.size(), "WordReader: out of data");
    return words_[cursor_++];
  }

  template <typename T>
  std::vector<T> take(std::size_t count) {
    static_assert(sizeof(T) == sizeof(std::uint64_t));
    check(cursor_ + count <= words_.size(),
          "WordReader: requested ", count, " words with ",
          words_.size() - cursor_, " remaining");
    std::vector<T> out(count);
    if (count > 0) {
      std::memcpy(out.data(), words_.data() + cursor_, count * sizeof(T));
    }
    cursor_ += count;
    return out;
  }

  bool exhausted() const { return cursor_ == words_.size(); }

 private:
  const MessageWords& words_;
  std::size_t cursor_ = 0;
};

} // namespace dsk
