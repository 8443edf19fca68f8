#pragma once
/// \file stats.hpp
/// Per-rank, per-phase communication and computation accounting. The
/// runtime counts every message and every 8-byte word that crosses a rank
/// boundary, attributed to the phase the algorithm declared (replication /
/// propagation / computation, as in the paper's Figure 5 breakdown). The
/// paper's "communication cost" — the maximum time any processor spends
/// sending and receiving — is computed from these counters by
/// WorldStats::modeled_time.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "runtime/machine.hpp"

namespace dsk {

/// Counters for one phase on one rank. A "word" is 8 bytes (one Scalar or
/// one Index), matching the paper's cost accounting (a COO nonzero is 3
/// words).
struct PhaseCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t words_received = 0;
  std::uint64_t flops = 0;

  PhaseCounters& operator+=(const PhaseCounters& other) {
    messages_sent += other.messages_sent;
    words_sent += other.words_sent;
    messages_received += other.messages_received;
    words_received += other.words_received;
    flops += other.flops;
    return *this;
  }
};

/// Reliability-layer traffic, kept STRICTLY apart from the per-phase
/// algorithm counters: under fault injection the logical payload words
/// still land in PhaseCounters exactly once (identical to a fault-free
/// run, which is itself a tested invariant), while every envelope
/// header, retransmitted copy, duplicate, and corrupt arrival is
/// charged here. All zero in default (faults-off) mode.
struct RetryCounters {
  std::uint64_t envelope_words = 0;     ///< seq + checksum header words
  std::uint64_t timeouts = 0;           ///< receive_for expiries
  std::uint64_t nacks = 0;              ///< retransmit requests issued
  std::uint64_t retransmits = 0;        ///< retransmitted copies received
  std::uint64_t retry_words = 0;        ///< words in retransmitted copies
  std::uint64_t duplicates_dropped = 0; ///< stale-sequence arrivals
  std::uint64_t corrupt_dropped = 0;    ///< checksum-mismatch arrivals
  std::uint64_t reordered = 0;          ///< ahead-of-sequence arrivals

  RetryCounters& operator+=(const RetryCounters& other) {
    envelope_words += other.envelope_words;
    timeouts += other.timeouts;
    nacks += other.nacks;
    retransmits += other.retransmits;
    retry_words += other.retry_words;
    duplicates_dropped += other.duplicates_dropped;
    corrupt_dropped += other.corrupt_dropped;
    reordered += other.reordered;
    return *this;
  }
  std::uint64_t healed() const {
    return retransmits + duplicates_dropped + reordered;
  }
};

class PhaseScope;

/// Accounting for a single simulated rank. Only that rank's thread
/// touches it while the world runs.
class RankStats {
 public:
  Phase current_phase() const { return current_; }
  void set_phase(Phase phase) { current_ = phase; }

  void record_send(std::uint64_t words) {
    auto& c = counters_[index(current_)];
    ++c.messages_sent;
    c.words_sent += words;
  }
  void record_receive(std::uint64_t words) {
    auto& c = counters_[index(current_)];
    ++c.messages_received;
    c.words_received += words;
  }
  void add_flops(std::uint64_t flops) {
    counters_[index(current_)].flops += flops;
  }

  /// Accumulate measured wall-clock seconds against a phase. PhaseScope
  /// does this automatically, so per-phase comm/compute spans come for
  /// free wherever the algorithms already declare their phases. Spans
  /// include time blocked in receives and barriers — which is exactly
  /// what makes the double-buffered and bulk-synchronous shift schedules
  /// distinguishable in the measured (not just modeled) breakdown.
  void add_seconds(Phase phase, double seconds) {
    seconds_[index(phase)] += seconds;
  }

  double seconds(Phase phase) const { return seconds_[index(phase)]; }

  const PhaseCounters& phase(Phase phase) const {
    return counters_[index(phase)];
  }

  /// Sum over the requested phases.
  PhaseCounters total(std::initializer_list<Phase> phases) const;

  /// Sum over all phases.
  PhaseCounters total() const;

  /// Innermost live PhaseScope on this rank (nullptr outside any scope).
  /// PhaseScope maintains it to make nested spans exclusive.
  PhaseScope* active_scope() const { return active_; }
  void set_active_scope(PhaseScope* scope) { active_ = scope; }

  /// Reliability-layer traffic (see RetryCounters) — written by this
  /// rank's thread only, like the phase counters.
  RetryCounters& retry() { return retry_; }
  const RetryCounters& retry() const { return retry_; }

 private:
  static std::size_t index(Phase phase) {
    return static_cast<std::size_t>(phase);
  }
  Phase current_ = Phase::Other;
  PhaseScope* active_ = nullptr;
  std::array<PhaseCounters, kNumPhases> counters_{};
  std::array<double, kNumPhases> seconds_{};
  RetryCounters retry_{};
};

/// RAII phase marker: sets the rank's phase for the enclosed scope,
/// restores the previous phase on exit, and charges the scope's measured
/// wall-clock span to its phase. Scopes nest EXCLUSIVELY: opening an
/// inner scope pauses the outer one's clock, so a phase opened inside
/// another (a driver's replication scope inside a caller's scope)
/// attributes every instant to exactly one phase and the per-phase spans
/// still sum to the covered wall time.
class PhaseScope {
 public:
  PhaseScope(RankStats& stats, Phase phase)
      : stats_(stats), phase_(phase), previous_(stats.current_phase()),
        parent_(stats.active_scope()), start_(Clock::now()) {
    if (parent_ != nullptr) parent_->pause(start_);
    stats_.set_active_scope(this);
    stats_.set_phase(phase);
  }
  ~PhaseScope() {
    const auto now = Clock::now();
    stats_.add_seconds(
        phase_, std::chrono::duration<double>(now - start_).count());
    stats_.set_active_scope(parent_);
    stats_.set_phase(previous_);
    if (parent_ != nullptr) parent_->start_ = now;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  /// Charge the span accumulated so far and stop the clock (the matching
  /// resume happens when the nested scope closes and resets start_).
  void pause(Clock::time_point now) {
    stats_.add_seconds(
        phase_, std::chrono::duration<double>(now - start_).count());
  }

  RankStats& stats_;
  Phase phase_;
  Phase previous_;
  PhaseScope* parent_;
  Clock::time_point start_;
};

/// Aggregated statistics for a finished world run.
class WorldStats {
 public:
  WorldStats() = default;
  explicit WorldStats(std::vector<RankStats> ranks)
      : ranks_(std::move(ranks)) {}

  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  const RankStats& rank(int r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }

  /// Max over ranks of words sent in a phase (the bandwidth-cost term the
  /// paper analyzes; ring collectives send and receive symmetrically).
  std::uint64_t max_words(Phase phase) const;

  /// Max over ranks of messages sent in a phase.
  std::uint64_t max_messages(Phase phase) const;

  /// Max over ranks of FLOPs in a phase.
  std::uint64_t max_flops(Phase phase) const;

  /// Modeled seconds for one phase: max over ranks of
  /// alpha*messages + beta*max(words_sent, words_received) + gamma*flops.
  double modeled_phase_seconds(Phase phase, const MachineModel& m) const;

  /// Sum of modeled phase times over the given phases.
  double modeled_seconds(std::initializer_list<Phase> phases,
                         const MachineModel& m) const;

  /// Replication + Propagation + Computation (the FusedMM kernel cost).
  double modeled_kernel_seconds(const MachineModel& m) const;

  /// Replication + Propagation communication only (no computation), the
  /// paper's "time spent exclusively in communication".
  double modeled_comm_seconds(const MachineModel& m) const;

  /// Kernel time if propagation were fully overlapped with local
  /// computation — the paper's future-work direction ("overlapping
  /// communication in the propagation phase ... with local computation",
  /// e.g. via one-sided MPI/RDMA): per rank, replication + max(prop,
  /// comp) instead of their sum; max over ranks.
  double modeled_overlap_seconds(const MachineModel& m) const;

  /// Max over ranks of measured wall-clock seconds spent in a phase
  /// (PhaseScope spans, including time blocked in receives/barriers).
  /// Unlike the modeled times these reflect the actual shift schedule:
  /// a double-buffered propagation loop shows smaller propagation spans
  /// than a bulk-synchronous one because receives stop waiting.
  double measured_phase_seconds(Phase phase) const;

  /// Max over ranks of the rank's total measured span across the three
  /// kernel phases — the per-rank critical path of one kernel run.
  double measured_kernel_seconds() const;

  /// Sum of the reliability-layer traffic across ranks (all zero in
  /// default mode; the retry traffic under injection, kept apart from
  /// the per-phase algorithm words).
  RetryCounters total_retry() const;

  /// Rank crashes recovered (shard rebuild + re-run of the whole call)
  /// during the run. The stats describe the last, complete attempt.
  int recoveries() const { return recoveries_; }
  void set_recoveries(int recoveries) { recoveries_ = recoveries; }

  /// Plan/execute accounting: how many times this call built a
  /// per-driver Setup (grid, shards, support unions) and how long those
  /// builds took. A `Plan::execute` reports (0, 0.0) — the setup was paid
  /// once at plan time — except 1.5D dense shifting's orientation-B
  /// `LocalKernelFusion`, which builds a setup of Sᵀ on every call and
  /// reports (1, measured). A degraded run's re-plan onto the smaller
  /// world is reported by degraded(), not here.
  int setup_builds() const { return setup_builds_; }
  double setup_seconds() const { return setup_seconds_; }
  void add_setup(int builds, double seconds) {
    setup_builds_ += builds;
    setup_seconds_ += seconds;
  }

  /// Load-imbalance ratio: max over ranks of (total words sent + flops)
  /// divided by the mean over ranks. 1.0 is perfectly balanced (make_plan
  /// balances skewed blocks before any run, dist/plan.hpp); the serving
  /// layer reports the last pass's. Returns 1.0 for empty/idle runs.
  double load_imbalance() const;

  /// Graceful degradation: set when a permanently lost rank made the
  /// driver re-plan the padded problem onto a smaller surviving world
  /// instead of erroring. The stats then describe the degraded run.
  bool degraded() const { return degraded_to_ > 0; }
  int degraded_rank() const { return degraded_rank_; }
  int degraded_from() const { return degraded_from_; }
  int degraded_to() const { return degraded_to_; }
  void set_degradation(int failed_rank, int from_ranks, int to_ranks) {
    degraded_rank_ = failed_rank;
    degraded_from_ = from_ranks;
    degraded_to_ = to_ranks;
  }

 private:
  std::vector<RankStats> ranks_;
  int setup_builds_ = 0;
  double setup_seconds_ = 0.0;
  int recoveries_ = 0;
  int degraded_rank_ = -1;
  int degraded_from_ = 0;
  int degraded_to_ = 0;
};

} // namespace dsk
