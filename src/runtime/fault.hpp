#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the simulated runtime. A FaultPlan
/// describes which faults to inject — message drop / duplication / delay
/// (reorder) / payload corruption at the Comm::send_words boundary, and
/// rank crashes pinned to a (phase, nth-operation) or shift-step trigger.
/// All decisions are pure functions of (seed, source, dest, tag, sequence
/// number), so a failing run is replayed exactly by its plan string.
///
/// Off by default: a world without a plan runs the legacy zero-overhead
/// transport and moves exactly the same words as before this layer
/// existed (the bench-word gates pin this).

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace dsk {

/// FNV-1a over 8-byte words — the envelope checksum and the replica
/// digests. Seeded variant doubles as the injector's decision hash.
inline std::uint64_t fnv1a_words(const std::uint64_t* words,
                                 std::size_t count,
                                 std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t w = words[i];
    for (int b = 0; b < 8; ++b) {
      hash ^= w & 0xffu;
      hash *= 0x100000001b3ull;
      w >>= 8;
    }
  }
  return hash;
}

/// What can go wrong with one message on the wire.
enum class FaultKind {
  Drop,      ///< delivery lost (healed by timeout + NACK retransmit)
  Duplicate, ///< delivered twice (second copy discarded by sequence check)
  Corrupt,   ///< payload word flipped (healed by checksum + retransmit)
  Delay,     ///< held back past the channel's next message (reordered)
};

/// One explicitly targeted message fault (unit tests pin these; the
/// randomized rates below are the soak surface).
struct MessageFaultSpec {
  FaultKind kind = FaultKind::Drop;
  int source = -1;
  int dest = -1;
  int tag = -1;
  std::uint64_t seq = 0; ///< per-(source, dest, tag) sequence number

  bool operator==(const MessageFaultSpec&) const = default;
};

/// Crash rank `rank` when it performs its `op_index`-th send/receive in
/// `phase` (any_phase counts every comm op), or — when step >= 0 — when
/// it enters shift step `step` of a propagation loop. One-shot: a fired
/// spec never re-fires, so a recovered re-run makes progress.
struct CrashSpec {
  int rank = -1;
  Phase phase = Phase::Other;
  bool any_phase = true;
  int op_index = 0;
  int step = -1; ///< >= 0 selects the shift-step trigger instead

  bool operator==(const CrashSpec&) const = default;
};

/// The full injection schedule for one world run.
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop_rate = 0;
  double dup_rate = 0;
  double corrupt_rate = 0;
  double delay_rate = 0;
  std::vector<MessageFaultSpec> messages;
  std::vector<CrashSpec> crashes;
  /// Reliable-receive envelope: base timeout before the first NACK,
  /// doubled per attempt, up to max_attempts retransmit requests.
  int timeout_ms = 25;
  int max_attempts = 8;

  bool enabled() const {
    return drop_rate > 0 || dup_rate > 0 || corrupt_rate > 0 ||
           delay_rate > 0 || !messages.empty() || !crashes.empty();
  }
  bool wants_messages() const {
    return drop_rate > 0 || dup_rate > 0 || corrupt_rate > 0 ||
           delay_rate > 0 || !messages.empty();
  }

  bool operator==(const FaultPlan&) const = default;
};

/// Parse the CLI / CI replay grammar:
///   seed=7,drop=0.02,dup=0.01,corrupt=0.02,delay=0.01,timeout_ms=25,
///   crash=2@prop:3,crash=1@step:0,crash=0@any:5
/// Crash triggers: <rank>@step:<s>, or <rank>@{repl|prop|comp|any}:<n>
/// (the rank's n-th comm operation in that phase). Throws dsk::Error on
/// anything malformed: unknown or repeated scalar keys, empty fields
/// (trailing commas), negative ranks / endpoints / rates, integers
/// outside their field's type (seed and sequence numbers are uint64,
/// the rest int), and duplicate crash or message specs.
FaultPlan parse_fault_plan(const std::string& spec);

/// Inverse of parse_fault_plan for the deterministic replay string
/// printed when a randomized soak run fails. Exact round trip:
/// parse_fault_plan(to_replay_string(p)) == p for every parseable plan
/// (rates print with shortest-round-trip formatting).
std::string to_replay_string(const FaultPlan& plan);

/// Everything known about a rank crash, carried from the injection point
/// to the recovery machinery and the structured WorldError.
struct CrashInfo {
  int rank = -1;
  Phase phase = Phase::Other;
  int op_index = -1; ///< comm-op trigger (-1 for step triggers)
  int step = -1;     ///< shift-step trigger (-1 for op triggers)
};

std::string describe(const CrashInfo& crash);

/// Structured runtime failure: names the root-cause rank, the phase it
/// failed in, and (when ranks were blocked) the wait graph. Subclasses
/// dsk::Error so every existing catch still works.
class WorldError : public Error {
 public:
  WorldError(std::string what, CrashInfo crash, std::string wait_graph)
      : Error(std::move(what)), crash_(crash),
        wait_graph_(std::move(wait_graph)) {}

  const CrashInfo& crash() const { return crash_; }
  const std::string& wait_graph() const { return wait_graph_; }

 private:
  CrashInfo crash_;
  std::string wait_graph_;
};

/// Thrown by receives and barriers woken by SimWorld::abort_all: always
/// a CONSEQUENCE of some other rank's failure, never a root cause. The
/// world's thread wrapper discards it, so run() rethrows the true first
/// error; the message still names the waiting rank, what it waited on,
/// and the abort reason, for bodies that catch locally.
class WorldAbortError : public Error {
 public:
  using Error::Error;
};

/// Thrown on the crashing rank's own thread by the injector; SimWorld
/// catches it and routes it into recovery (or a WorldError).
class RankCrashError : public Error {
 public:
  RankCrashError(std::string what, CrashInfo crash)
      : Error(std::move(what)), crash_(crash) {}
  const CrashInfo& crash() const { return crash_; }

 private:
  CrashInfo crash_;
};

/// Per-run decision engine over a FaultPlan. Message decisions are
/// stateless hashes (identical across recovery re-runs — injected
/// message faults re-fire and re-heal); crash specs are one-shot.
/// Per-rank operation counters are only ever touched by that rank's
/// thread; the fired flags are written by the crashing rank and re-read
/// by the same rank on the next attempt (ordered by thread join/spawn),
/// so the injector needs no locking.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan, int num_ranks);

  /// Wire-fault decision for one delivery.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool delay = false;
  };
  Decision on_send(int source, int dest, int tag, std::uint64_t seq) const;

  /// Crash check at a comm operation (called from Comm::send_words /
  /// recv_words on the rank's own thread). Throws RankCrashError when a
  /// spec fires.
  void on_comm_op(int rank, Phase phase);

  /// Crash check at a shift-step boundary (called from run_shift_loop).
  void on_shift_step(int rank, Phase phase, int step);

  const FaultPlan& plan() const { return plan_; }

 private:
  bool hits(double rate, int source, int dest, int tag, std::uint64_t seq,
            std::uint64_t salt) const;

  FaultPlan plan_;
  std::vector<char> crash_fired_;
  /// ops_[rank * kNumPhases + phase] plus an any-phase total per rank.
  std::vector<std::uint64_t> phase_ops_;
  std::vector<std::uint64_t> total_ops_;
};

} // namespace dsk
