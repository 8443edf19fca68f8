#include "runtime/mailbox.hpp"

#include <sstream>

#include "common/error.hpp"
#include "runtime/fault.hpp"
#include "runtime/world.hpp"

namespace dsk {

// Lock order: a mailbox's mutex may be held while taking the world's
// registry or state mutexes (note_* and abort_reason below), never the
// reverse — abort_all releases the world state lock before touching any
// mailbox.

void Mailbox::deliver(int source, int tag, MessagePayload payload) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[Key{source, tag}].push_back(std::move(payload));
    if (world_ != nullptr) {
      // Unblock the matching waiter in the registry before it even wakes
      // up, so a concurrent deadlock check never counts a rank with a
      // deliverable message as blocked.
      world_->note_delivery(rank_, source, tag);
    }
  }
  available_.notify_all();
}

void Mailbox::throw_aborted(int source, int tag) const {
  std::ostringstream out;
  out << "rank " << rank_ << ": aborted while waiting for message from "
      << source << " (tag " << tag << "): "
      << (world_ != nullptr ? world_->abort_reason() : "world aborted");
  throw WorldAbortError(out.str());
}

MessagePayload Mailbox::receive(int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{source, tag};
  bool marked = false;
  for (;;) {
    if (aborted_) {
      if (marked) world_->note_wake(rank_);
      throw_aborted(source, tag);
    }
    const auto it = queues_.find(key);
    if (it != queues_.end() && !it->second.empty()) {
      if (marked) world_->note_wake(rank_);
      MessagePayload out = std::move(it->second.front());
      it->second.pop_front();
      return out;
    }
    if (world_ != nullptr) {
      std::string graph;
      if (world_->note_recv_block(rank_, source, tag, /*timed=*/false,
                                  &graph)) {
        world_->note_wake(rank_);
        CrashInfo none;
        throw WorldError(
            "deadlock: every rank is blocked with no deliverable "
            "message; " +
                graph,
            none, graph);
      }
      marked = true;
    }
    available_.wait(lock);
  }
}

std::optional<MessagePayload> Mailbox::receive_for(
    int source, int tag, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Key key{source, tag};
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool marked = false;
  for (;;) {
    if (aborted_) {
      if (marked) world_->note_wake(rank_);
      throw_aborted(source, tag);
    }
    const auto it = queues_.find(key);
    if (it != queues_.end() && !it->second.empty()) {
      if (marked) world_->note_wake(rank_);
      MessagePayload out = std::move(it->second.front());
      it->second.pop_front();
      return out;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      if (marked) world_->note_wake(rank_);
      return std::nullopt;
    }
    if (world_ != nullptr) {
      world_->note_recv_block(rank_, source, tag, /*timed=*/true, nullptr);
      marked = true;
    }
    available_.wait_until(lock, deadline);
  }
}

void Mailbox::abort() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }
  available_.notify_all();
}

void Mailbox::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  queues_.clear();
  aborted_ = false;
}

bool Mailbox::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, queue] : queues_) {
    if (!queue.empty()) return false;
  }
  return true;
}

} // namespace dsk
