#pragma once
/// \file mailbox.hpp
/// Point-to-point message transport between simulated ranks. Each rank
/// owns a mailbox; a send enqueues a payload (a word vector, or a dense
/// block moved in as its own storage) under (source, tag) and
/// never blocks (buffered sends, like MPI_Isend with ample buffering); a
/// receive blocks until a matching message arrives. An abort flag lets the
/// world wake every blocked receiver when some rank throws, so failures
/// surface instead of deadlocking; blocked receivers register with the
/// world's wait registry so an all-blocked world is diagnosed as a
/// deadlock (with a wait graph) instead of hanging, and the timed
/// receive_for underpins the reliable-envelope retransmit layer.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "dense/dense_matrix.hpp"

namespace dsk {

class SimWorld;

/// Message payload: 8-byte words (Scalar or Index bit patterns).
using MessageWords = std::vector<std::uint64_t>;

/// What one message carries: a word image, or — `is_block` — a dense
/// block that crosses the hop as its own storage (Comm::send_block), no
/// word image built for it.
struct MessagePayload {
  MessagePayload(MessageWords w) : words(std::move(w)) {}
  MessagePayload(DenseMatrix b) : block(std::move(b)), is_block(true) {}

  MessageWords words;
  DenseMatrix block;
  bool is_block = false;
};

class Mailbox {
 public:
  /// Bind the mailbox to its world and owning rank (wait registry and
  /// abort-reason lookups). Called once by SimWorld's constructor.
  void attach(SimWorld* world, int rank) {
    world_ = world;
    rank_ = rank;
  }

  /// Enqueue a message from source with the given tag.
  void deliver(int source, int tag, MessagePayload payload);

  /// Block until a message from (source, tag) is available and return it.
  /// Throws WorldAbortError if the world aborts while waiting (naming
  /// this rank, the awaited channel, and the abort's root cause) and
  /// WorldError when blocking here completes a deadlock.
  MessagePayload receive(int source, int tag);

  /// Like receive, but give up after `timeout` and return nullopt. Timed
  /// waiters never trip the deadlock watchdog — their callers make
  /// progress on their own (the retransmit layer's NACK path).
  std::optional<MessagePayload> receive_for(
      int source, int tag, std::chrono::milliseconds timeout);

  /// Wake all blocked receivers with an abort error.
  void abort();

  /// Drop all state (queued messages, abort flag) so the world can be
  /// reused for another run.
  void reset();

  /// True when no undelivered messages remain (used by tests to assert
  /// protocols consume everything they send).
  bool empty() const;

 private:
  using Key = std::pair<int, int>; // (source, tag)

  [[noreturn]] void throw_aborted(int source, int tag) const;

  SimWorld* world_ = nullptr;
  int rank_ = -1;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::map<Key, std::deque<MessagePayload>> queues_;
  bool aborted_ = false;
};

} // namespace dsk
