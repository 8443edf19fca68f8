#include "runtime/world.hpp"

#include <exception>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "runtime/wire.hpp"

namespace dsk {

/// Reliable message layer, constructed per attempt only when the fault
/// plan injects message faults. Every send is wrapped in an envelope
/// [seq, fnv1a(payload), payload...] with per-(source, dest, tag)
/// sequence numbers, and a clean copy is appended to a wire log. The
/// receiver validates checksum and sequence; on timeout or corruption it
/// NACKs by synchronously re-delivering the logged copy into its own
/// mailbox — the retransmit channel is modeled as reliable (control
/// traffic bypasses the injector) and its words are charged to
/// RetryCounters, never to the per-phase algorithm counters.
///
/// Threading: the wire log and the parked-delay slot are shared between
/// sender and receiver threads and guarded by mutex_; the per-sender
/// sequence counters and per-receiver expected/reorder state are only
/// ever touched by their owning rank's thread.
class ReliableTransport {
 public:
  ReliableTransport(SimWorld& world, const FaultInjector& injector)
      : world_(world), injector_(injector), plan_(injector.plan()),
        send_seq_(static_cast<std::size_t>(world.size())),
        recv_state_(static_cast<std::size_t>(world.size())) {}

  void send(int src, int dest, int tag, MessageWords payload,
            RankStats& stats) {
    const Channel ch{src, dest, tag};
    const std::uint64_t seq =
        send_seq_[static_cast<std::size_t>(src)][{dest, tag}]++;
    MessageWords envelope;
    envelope.reserve(payload.size() + 2);
    envelope.push_back(seq);
    envelope.push_back(fnv1a_words(payload.data(), payload.size()));
    envelope.insert(envelope.end(), payload.begin(), payload.end());
    stats.retry().envelope_words += 2;

    std::optional<MessageWords> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      log_[ch].push_back(envelope); // clean copy, for retransmits
      const auto it = parked_.find(ch);
      if (it != parked_.end()) {
        parked = std::move(it->second);
        parked_.erase(it);
      }
    }

    const FaultInjector::Decision d = injector_.on_send(src, dest, tag, seq);
    if (d.drop) {
      // The dropped copy never reaches the wire; a parked predecessor
      // still does (its delay ends with the next traffic on the channel).
      if (parked) deliver(src, dest, tag, std::move(*parked));
      return;
    }
    MessageWords wire = std::move(envelope);
    if (d.corrupt) {
      // Flip one payload bit (or the checksum itself for empty
      // payloads); the receiver's FNV check catches either.
      wire[wire.size() > 2 ? 2 : 1] ^= 1ull;
    }
    if (d.delay) {
      // Deterministic reorder: park this copy until the channel's next
      // send overtakes it. A parked predecessor flushes now (in order —
      // its delay is over). If nothing ever follows, the receiver heals
      // the gap via NACK and the parked copy dies with the transport.
      if (parked) deliver(src, dest, tag, std::move(*parked));
      std::lock_guard<std::mutex> lock(mutex_);
      parked_[ch] = std::move(wire);
      return;
    }
    deliver(src, dest, tag, MessageWords(wire));
    if (d.duplicate) deliver(src, dest, tag, std::move(wire));
    if (parked) deliver(src, dest, tag, std::move(*parked));
  }

  MessageWords recv(int dst, int source, int tag, RankStats& stats) {
    auto& st = recv_state_[static_cast<std::size_t>(dst)][{source, tag}];
    if (auto ready = pop_buffered(st)) return std::move(*ready);
    int attempts = 0;
    int idle = 0;
    for (;;) {
      const int shift = attempts < 6 ? attempts : 6;
      const auto timeout =
          std::chrono::milliseconds(static_cast<long>(plan_.timeout_ms)
                                    << shift);
      // Fault mode sends every block encoded (Comm::send_block), so
      // every payload here is words.
      auto received = world_.mailbox(dst).receive_for(source, tag, timeout);
      MessageWords* msg = received ? &received->words : nullptr;
      if (msg == nullptr) {
        ++stats.retry().timeouts;
        if (retransmit(source, dst, tag, st.expected, stats)) {
          ++stats.retry().nacks;
          ++attempts;
          if (attempts > plan_.max_attempts) {
            CrashInfo none;
            throw WorldError(
                describe_wait(dst, source, tag, st.expected) +
                    ": gave up after " +
                    std::to_string(plan_.max_attempts) +
                    " retransmit attempts",
                none, "");
          }
        } else if (++idle > kIdleSpinLimit) {
          // The message was never even sent — the sender is wedged in a
          // way the deadlock watchdog cannot prove (we are a timed
          // waiter). Bounded patience instead of a silent hang.
          CrashInfo none;
          throw WorldError(describe_wait(dst, source, tag, st.expected) +
                               ": message was never sent (peer wedged?)",
                           none, "");
        }
        continue;
      }
      check(msg->size() >= 2, "ReliableTransport: runt envelope from ",
            source, " tag ", tag);
      const std::uint64_t seq = (*msg)[0];
      const std::uint64_t sum = (*msg)[1];
      MessageWords payload(msg->begin() + 2, msg->end());
      if (fnv1a_words(payload.data(), payload.size()) != sum) {
        ++stats.retry().corrupt_dropped;
        if (retransmit(source, dst, tag, st.expected, stats)) {
          ++stats.retry().nacks;
        }
        continue;
      }
      if (seq < st.expected) {
        ++stats.retry().duplicates_dropped;
        continue;
      }
      if (seq > st.expected) {
        ++stats.retry().reordered;
        st.buffer.emplace(seq, std::move(payload));
        if (auto ready = pop_buffered(st)) return std::move(*ready);
        continue;
      }
      ++st.expected;
      return payload;
    }
  }

 private:
  using Channel = std::tuple<int, int, int>; // (src, dst, tag)
  struct RecvState {
    std::uint64_t expected = 0;
    std::map<std::uint64_t, MessageWords> buffer;
  };
  static constexpr int kIdleSpinLimit = 400;

  std::optional<MessageWords> pop_buffered(RecvState& st) {
    const auto it = st.buffer.find(st.expected);
    if (it == st.buffer.end()) return std::nullopt;
    MessageWords payload = std::move(it->second);
    st.buffer.erase(it);
    ++st.expected;
    return payload;
  }

  void deliver(int src, int dest, int tag, MessageWords words) {
    world_.mailbox(dest).deliver(src, tag, std::move(words));
  }

  /// Re-deliver the logged clean copy of (src -> dst, tag, seq) into
  /// dst's mailbox. False when the sender has not sent that far yet.
  bool retransmit(int src, int dst, int tag, std::uint64_t seq,
                  RankStats& stats) {
    MessageWords copy;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = log_.find(Channel{src, dst, tag});
      if (it == log_.end() || seq >= it->second.size()) return false;
      copy = it->second[static_cast<std::size_t>(seq)];
    }
    ++stats.retry().retransmits;
    stats.retry().retry_words += copy.size();
    deliver(src, dst, tag, std::move(copy));
    return true;
  }

  std::string describe_wait(int dst, int source, int tag,
                            std::uint64_t seq) const {
    std::ostringstream out;
    out << "rank " << dst << " waiting for message from " << source
        << " (tag " << tag << ", seq " << seq << ")";
    return out.str();
  }

  SimWorld& world_;
  const FaultInjector& injector_;
  const FaultPlan& plan_;
  std::vector<std::map<std::pair<int, int>, std::uint64_t>> send_seq_;
  std::vector<std::map<std::pair<int, int>, RecvState>> recv_state_;
  std::mutex mutex_;
  std::map<Channel, std::vector<MessageWords>> log_;
  std::map<Channel, MessageWords> parked_;
};

int Comm::size() const { return world_->size(); }

void Comm::begin_op(int peer, const char* what) {
  check(0 <= peer && peer < size(), "Comm::", what, ": peer ", peer,
        " out of range");
  if (injector_ != nullptr) {
    injector_->on_comm_op(rank_, stats_->current_phase());
  }
}

void Comm::send_words(int destination, int tag, MessageWords words) {
  begin_op(destination, "send_words");
  // The logical payload is charged to the phase counters exactly once,
  // faults or not — fault-free word exactness is an invariant, and under
  // faults every envelope/retry word goes to RetryCounters instead.
  stats_->record_send(words.size());
  if (transport_ != nullptr) {
    transport_->send(rank_, destination, tag, std::move(words), *stats_);
  } else {
    world_->mailbox(destination).deliver(rank_, tag, std::move(words));
  }
}

MessageWords Comm::recv_words(int source, int tag) {
  begin_op(source, "recv_words");
  MessageWords words;
  if (transport_ != nullptr) {
    words = transport_->recv(rank_, source, tag, *stats_);
  } else {
    MessagePayload payload = world_->mailbox(rank_).receive(source, tag);
    check(!payload.is_block, "Comm::recv_words: rank ", rank_,
          " expected words from ", source, " (tag ", tag,
          ") but received a dense block");
    words = std::move(payload.words);
  }
  stats_->record_receive(words.size());
  return words;
}

void Comm::send_block(int destination, int tag, DenseMatrix block,
                      const WireCodec& codec) {
  if (encodes_blocks(codec)) {
    send_words(destination, tag, encode_dense(block, codec));
    return;
  }
  begin_op(destination, "send_block");
  stats_->record_send(static_cast<std::uint64_t>(block.size()));
  world_->mailbox(destination).deliver(rank_, tag, std::move(block));
}

DenseMatrix Comm::recv_block(int source, int tag, Index rows, Index cols,
                             const WireCodec& codec) {
  if (encodes_blocks(codec)) {
    const MessageWords wire = recv_words(source, tag);
    DenseMatrix block = DenseMatrix::uninitialized(rows, cols);
    decode_dense(wire, block, codec);
    return block;
  }
  begin_op(source, "recv_block");
  MessagePayload payload = world_->mailbox(rank_).receive(source, tag);
  check(payload.is_block, "Comm::recv_block: rank ", rank_,
        " expected a dense block from ", source, " (tag ", tag,
        ") but received words");
  const DenseMatrix& block = payload.block;
  check(block.rows() == rows && block.cols() == cols,
        "Comm::recv_block: rank ", rank_, " received a ", block.rows(),
        " x ", block.cols(), " block from ", source, ", expected ", rows,
        " x ", cols);
  stats_->record_receive(static_cast<std::uint64_t>(block.size()));
  return std::move(payload.block);
}

void Comm::barrier() { world_->barrier_wait(rank_); }

SimWorld::SimWorld(int num_ranks)
    : num_ranks_(num_ranks),
      waits_(static_cast<std::size_t>(num_ranks > 0 ? num_ranks : 0)) {
  check(num_ranks >= 1, "SimWorld: need at least one rank, got ", num_ranks);
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->attach(this, r);
  }
}

SimWorld::~SimWorld() = default;

void SimWorld::barrier_wait(int rank) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (aborted_) {
    fail_aborted_barrier(rank);
  }
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_arrived_ == num_ranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    {
      // Release every barrier waiter in the registry before they wake,
      // mirroring note_delivery for receives.
      std::lock_guard<std::mutex> rlock(registry_mutex_);
      for (auto& w : waits_) {
        if (w.kind == WaitInfo::Kind::Barrier) {
          w.kind = WaitInfo::Kind::Running;
        }
      }
    }
    barrier_cv_.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> rlock(registry_mutex_);
    waits_[static_cast<std::size_t>(rank)] = {WaitInfo::Kind::Barrier, -1,
                                              -1};
    std::string graph;
    if (deadlock_locked(&graph)) {
      waits_[static_cast<std::size_t>(rank)] = {WaitInfo::Kind::Running,
                                                -1, -1};
      // Undo our arrival so a later (recovered) barrier is not skewed.
      --barrier_arrived_;
      CrashInfo none;
      throw WorldError("deadlock: every rank is blocked (rank " +
                           std::to_string(rank) +
                           " last, in barrier); " + graph,
                       none, graph);
    }
  }
  barrier_cv_.wait(lock, [&] {
    return barrier_generation_ != generation || aborted_;
  });
  note_wake(rank);
  // Abort only if the barrier itself was torn down: when the generation
  // advanced, every rank arrived before the abort, so the barrier
  // logically completed — return success and let the rank observe the
  // abort at its next blocking operation.
  if (barrier_generation_ == generation && aborted_) {
    fail_aborted_barrier(rank);
  }
}

void SimWorld::fail_aborted_barrier(int rank) {
  // barrier_mutex_ is held by the caller; abort_reason_ is stable once
  // aborted_ is set.
  throw WorldAbortError("rank " + std::to_string(rank) +
                        ": aborted during barrier: " + abort_reason_);
}

void SimWorld::abort_all(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    aborted_ = true;
    if (abort_reason_.empty()) {
      abort_reason_ = reason.empty() ? "world aborted" : reason;
      std::lock_guard<std::mutex> rlock(registry_mutex_);
      abort_graph_ = wait_graph_locked();
    }
  }
  barrier_cv_.notify_all();
  for (auto& mailbox : mailboxes_) {
    mailbox->abort();
  }
}

std::string SimWorld::abort_reason() const {
  std::lock_guard<std::mutex> lock(
      const_cast<SimWorld*>(this)->barrier_mutex_);
  return abort_reason_.empty() ? "world aborted" : abort_reason_;
}

bool SimWorld::note_recv_block(int rank, int source, int tag, bool timed,
                               std::string* graph) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  waits_[static_cast<std::size_t>(rank)] = {
      timed ? WaitInfo::Kind::TimedRecv : WaitInfo::Kind::Recv, source,
      tag};
  if (timed) return false;
  return deadlock_locked(graph);
}

void SimWorld::note_wake(int rank) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  waits_[static_cast<std::size_t>(rank)] = {WaitInfo::Kind::Running, -1,
                                            -1};
}

void SimWorld::note_delivery(int dest, int source, int tag) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto& w = waits_[static_cast<std::size_t>(dest)];
  if ((w.kind == WaitInfo::Kind::Recv ||
       w.kind == WaitInfo::Kind::TimedRecv) &&
      w.source == source && w.tag == tag) {
    w = {WaitInfo::Kind::Running, -1, -1};
  }
}

bool SimWorld::note_exit(int rank, std::string* graph) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  waits_[static_cast<std::size_t>(rank)] = {WaitInfo::Kind::Exited, -1,
                                            -1};
  return deadlock_locked(graph);
}

bool SimWorld::deadlock_locked(std::string* graph) const {
  // Deadlock iff nobody can make progress: every rank is blocked in an
  // UNTIMED wait or has exited, and at least one is blocked. Timed
  // waiters self-heal (the retransmit layer's NACK path), so their
  // presence defers the verdict to their own bounded give-up.
  int blocked = 0;
  for (const auto& w : waits_) {
    switch (w.kind) {
      case WaitInfo::Kind::Running:
      case WaitInfo::Kind::TimedRecv:
        return false;
      case WaitInfo::Kind::Recv:
      case WaitInfo::Kind::Barrier:
        ++blocked;
        break;
      case WaitInfo::Kind::Exited:
        break;
    }
  }
  if (blocked == 0) return false;
  if (graph != nullptr) *graph = wait_graph_locked();
  return true;
}

std::string SimWorld::wait_graph_locked() const {
  std::ostringstream out;
  out << "wait graph:";
  for (std::size_t r = 0; r < waits_.size(); ++r) {
    const auto& w = waits_[r];
    out << " [rank " << r << ": ";
    switch (w.kind) {
      case WaitInfo::Kind::Running: out << "running"; break;
      case WaitInfo::Kind::Recv:
        out << "recv from " << w.source << " tag " << w.tag;
        break;
      case WaitInfo::Kind::TimedRecv:
        out << "timed recv from " << w.source << " tag " << w.tag;
        break;
      case WaitInfo::Kind::Barrier: out << "barrier"; break;
      case WaitInfo::Kind::Exited: out << "exited"; break;
    }
    out << "]";
  }
  return out.str();
}

void SimWorld::reset_for_attempt() {
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    aborted_ = false;
    abort_reason_.clear();
    abort_graph_.clear();
    barrier_arrived_ = 0;
    // Leave barrier_generation_ as is: waiters key on inequality.
  }
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto& w : waits_) w = WaitInfo{};
  }
  // A clean previous run leaves empty mailboxes; an aborted or faulted
  // one may not (stale duplicates, parked delays, undelivered sends).
  for (auto& mailbox : mailboxes_) {
    mailbox->reset();
  }
}

WorldStats SimWorld::run(const std::function<void(Comm&)>& body) {
  return run(body, WorldOptions{});
}

WorldStats SimWorld::run(const std::function<void(Comm&)>& body,
                         const WorldOptions& options) {
  const FaultPlan* plan =
      options.faults != nullptr && options.faults->enabled()
          ? options.faults
          : nullptr;
  std::unique_ptr<FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<FaultInjector>(*plan, num_ranks_);
  }
  // Every failure that escapes a fault-mode run carries the plan's
  // replay string: a soak log alone is enough to reproduce it.
  const std::string replay =
      plan != nullptr ? " [replay: " + to_replay_string(*plan) + "]" : "";

  int recoveries = 0;
  for (;;) {
    reset_for_attempt();
    // Fresh transport per attempt: sequence numbers, wire log, and
    // parked deliveries all restart with the re-spawned ranks.
    std::unique_ptr<ReliableTransport> transport;
    if (plan != nullptr && plan->wants_messages()) {
      transport = std::make_unique<ReliableTransport>(*this, *injector);
    }

    std::vector<RankStats> stats(static_cast<std::size_t>(num_ranks_));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_ranks_));

    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::optional<CrashInfo> crash;
    std::optional<WorldError> watchdog_error;

    for (int r = 0; r < num_ranks_; ++r) {
      threads.emplace_back([&, r] {
        Comm comm(*this, r, stats[static_cast<std::size_t>(r)]);
        comm.set_fault_context(injector.get(), transport.get());
        try {
          body(comm);
        } catch (const RankCrashError& e) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!crash && !first_error) crash = e.crash();
          }
          abort_all(e.what() + replay);
        } catch (const WorldAbortError&) {
          // A consequence of someone else's failure; the root cause is
          // already recorded (or is a crash being handled).
        } catch (const std::exception& e) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          abort_all(e.what() + replay);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          abort_all("unknown error" + replay);
        }
        std::string graph;
        if (note_exit(r, &graph)) {
          {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!watchdog_error && !first_error && !crash) {
              CrashInfo none;
              watchdog_error.emplace(
                  "deadlock: all remaining ranks are blocked after rank " +
                      std::to_string(r) + " exited; " + graph + replay,
                  none, graph);
            }
          }
          abort_all("deadlock detected on rank " + std::to_string(r) +
                    "'s exit");
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }

    if (first_error) {
      if (!replay.empty()) {
        try {
          std::rethrow_exception(first_error);
        } catch (const WorldError& e) {
          throw WorldError(e.what() + replay, e.crash(), e.wait_graph());
        } catch (const WorldAbortError& e) {
          throw WorldAbortError(e.what() + replay);
        } catch (...) {
          throw;
        }
      }
      std::rethrow_exception(first_error);
    }
    if (crash) {
      if (options.on_crash && recoveries < options.max_recoveries) {
        ++recoveries;
        // Repair (replica reconstruction) runs on this thread between
        // attempts; it throws WorldError itself when unrecoverable.
        options.on_crash(*crash);
        continue;
      }
      std::string graph;
      {
        std::lock_guard<std::mutex> lock(barrier_mutex_);
        graph = abort_graph_;
      }
      throw WorldError(describe(*crash) +
                           (options.on_crash
                                ? " (recovery budget exhausted); "
                                : " (no recovery handler); ") +
                           graph + replay,
                       *crash, graph);
    }
    if (watchdog_error) {
      throw *watchdog_error;
    }
    {
      std::lock_guard<std::mutex> lock(barrier_mutex_);
      if (aborted_) {
        fail("SimWorld: aborted: ", abort_reason_);
      }
    }
    if (plan == nullptr) {
      // Strict protocol hygiene in default mode. Under faults, stale
      // duplicate/parked copies are expected and were drained by design.
      for (int r = 0; r < num_ranks_; ++r) {
        check(mailboxes_[static_cast<std::size_t>(r)]->empty(),
              "SimWorld: rank ", r,
              " finished with undelivered messages (protocol bug)");
      }
    }
    WorldStats out(std::move(stats));
    out.set_recoveries(recoveries);
    return out;
  }
}

WorldStats run_spmd(int num_ranks, const std::function<void(Comm&)>& body) {
  SimWorld world(num_ranks);
  return world.run(body);
}

WorldStats run_spmd(int num_ranks, const std::function<void(Comm&)>& body,
                    const WorldOptions& options) {
  SimWorld world(num_ranks);
  return world.run(body, options);
}

} // namespace dsk
