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

/// Distinct tag spaces keep independent protocols from interleaving.
/// Messages between a (source, tag) pair are FIFO, matching MPI's
/// non-overtaking guarantee, so repeated steps of one protocol share a tag.
enum CommTag : int {
  kTagUser = 0,
  kTagShift = 1,
  kTagAllgather = 2,
  kTagReduceScatter = 3,
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

  /// Dense-block send/receive: the block crosses the hop as its own
  /// storage — no word image is built — and is charged rows x cols words
  /// and one message at both endpoints, exactly as its Full-precision
  /// image would be. Two cases still encode to words at this boundary: a
  /// world with reliable envelopes (fault mode), whose checksums cover
  /// the encoded payload, and a non-Full `codec` precision (the lossy
  /// codecs). Shapes travel out of band: the receiver names the shape it
  /// expects, and a block of another shape — or a word message where a
  /// block is due, and the reverse — is a structured Error.
  void send_block(int destination, int tag, DenseMatrix block,
                  const WireCodec& codec = {});
  DenseMatrix recv_block(int source, int tag, Index rows, Index cols,
                         const WireCodec& codec = {});

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

  /// Global barrier across all ranks (no cost charged; the paper's model
  /// ignores synchronization cost next to bandwidth terms).
  void barrier();

  // --- fault-mode plumbing, set by SimWorld::run (all null in the
  // default fault-free mode, where send/recv take the legacy zero-
  // overhead path and move exactly the same words as ever) ---
  void set_fault_context(FaultInjector* injector,
                         ReliableTransport* transport) {
    injector_ = injector;
    transport_ = transport;
  }

  /// Crash trigger at a shift-step boundary (run_shift_loop calls this
  /// when entering each step; no-op without an injector).
  void on_shift_step(int step) {
    if (injector_ != nullptr) {
      injector_->on_shift_step(rank_, stats_->current_phase(), step);
    }
  }

 private:
  /// Range-check the peer and give the injector its crash trigger.
  void begin_op(int peer, const char* what);
  /// Blocks encode to words in fault mode and at lossy precisions.
  bool encodes_blocks(const WireCodec& codec) const {
    return transport_ != nullptr || codec.precision != WirePrecision::Full;
  }

  SimWorld* world_;
  int rank_;
  RankStats* stats_;
  FaultInjector* injector_ = nullptr;
  ReliableTransport* transport_ = nullptr;
};

} // namespace dsk
