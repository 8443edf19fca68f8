#pragma once
/// \file world.hpp
/// The simulated distributed-memory machine. SimWorld spawns one thread
/// per rank, runs the SPMD body, and returns per-rank statistics. This is
/// the stand-in for MPI on Cori: algorithms written against Comm/Group
/// are structured exactly like their MPI counterparts, and the world
/// measures precisely the communication the paper's theory counts.
///
/// Failure model (see src/runtime/README.md): a run may carry a
/// WorldOptions with a FaultPlan. The world then routes every message
/// through a checksummed, sequence-numbered envelope layer with timed
/// receives and NACK-driven retransmit (drop/corrupt/duplicate/reorder
/// faults self-heal, with the retry traffic counted apart from the
/// algorithm words), and rank crashes either recover — the on_crash
/// repair callback rebuilds the lost shard from replicas or a
/// digest-verified checkpoint and the world re-runs the whole body — or
/// surface as a structured WorldError naming
/// the failed rank, phase, and wait graph, with the fault plan's replay
/// string embedded so the failure reproduces from the log alone.
/// A deadlock watchdog aborts all-blocked worlds with the wait graph
/// instead of hanging. Without a plan, none of this machinery is even
/// constructed: the default path moves exactly the same words as before.

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/stats.hpp"

namespace dsk {

/// Per-run fault configuration. `faults` is borrowed (must outlive the
/// run) and may be null (default fault-free mode). `on_crash` runs
/// between attempts on the caller's thread after a rank crash, repairing
/// the crashed rank's state (replica reconstruction or checkpoint
/// restore); without it — or past max_recoveries — a crash surfaces as
/// WorldError.
struct WorldOptions {
  const FaultPlan* faults = nullptr;
  std::function<void(const CrashInfo&)> on_crash;
  int max_recoveries = 4;
};

class SimWorld {
 public:
  /// Create a world with num_ranks simulated processors.
  explicit SimWorld(int num_ranks);
  ~SimWorld();

  int size() const { return num_ranks_; }

  /// Execute body(comm) on every rank concurrently and return the
  /// per-rank statistics. If any rank throws, all blocked ranks are
  /// aborted and the first root-cause exception is rethrown after
  /// joining (the woken ranks' WorldAbortErrors are consequences and
  /// are discarded). Throws if a protocol finishes with undelivered
  /// messages. The world is reusable: each call resets abort/barrier/
  /// mailbox state from any previous (even failed) run.
  WorldStats run(const std::function<void(Comm&)>& body);

  /// As above, under a fault plan (injection, reliable envelopes, crash
  /// recovery). With options.faults null this is exactly run(body).
  WorldStats run(const std::function<void(Comm&)>& body,
                 const WorldOptions& options);

  // --- used by Comm ---
  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<std::size_t>(rank)]; }
  void barrier_wait(int rank);

  /// Abort every blocked rank, recording the first caller's reason (the
  /// root cause included in all subsequent wait-abort errors) and a
  /// snapshot of the wait graph at abort time.
  void abort_all(const std::string& reason);
  std::string abort_reason() const;

  // --- wait registry (used by Mailbox and the thread wrapper) ---
  /// Mark `rank` blocked in a receive. Returns true — with the wait
  /// graph — when this block completes a deadlock (every rank blocked
  /// untimed or exited); timed waiters self-heal and never deadlock.
  bool note_recv_block(int rank, int source, int tag, bool timed,
                       std::string* graph);
  /// Mark `rank` runnable again (woken, received, or unwinding).
  void note_wake(int rank);
  /// A message for (source, tag) reached `dest`'s mailbox: unblock a
  /// matching waiter before it even wakes (called under dest's mailbox
  /// lock, so a concurrent deadlock check never sees a stale block).
  void note_delivery(int dest, int source, int tag);

 private:
  struct WaitInfo {
    enum class Kind { Running, Recv, TimedRecv, Barrier, Exited };
    Kind kind = Kind::Running;
    int source = -1;
    int tag = -1;
  };

  /// Mark `rank`'s thread finished. True when the remaining blocked
  /// ranks can never be woken (deadlock) — the caller aborts the world.
  bool note_exit(int rank, std::string* graph);
  [[noreturn]] void fail_aborted_barrier(int rank);
  bool deadlock_locked(std::string* graph) const;
  std::string wait_graph_locked() const;
  /// Restore a clean slate before (re)spawning the rank threads.
  void reset_for_attempt();

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  bool aborted_ = false;
  std::string abort_reason_;
  std::string abort_graph_;

  mutable std::mutex registry_mutex_;
  std::vector<WaitInfo> waits_;
};

/// Convenience: build a world, run the body, return the stats.
WorldStats run_spmd(int num_ranks, const std::function<void(Comm&)>& body);
WorldStats run_spmd(int num_ranks, const std::function<void(Comm&)>& body,
                    const WorldOptions& options);

} // namespace dsk
