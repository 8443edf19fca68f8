#include "runtime/stats.hpp"

#include <algorithm>

namespace dsk {

PhaseCounters RankStats::total(std::initializer_list<Phase> phases) const {
  PhaseCounters out;
  for (const Phase p : phases) {
    out += counters_[index(p)];
  }
  return out;
}

PhaseCounters RankStats::total() const {
  return total({Phase::Replication, Phase::Propagation, Phase::Computation,
                Phase::Application, Phase::Other});
}

RetryCounters WorldStats::total_retry() const {
  RetryCounters out;
  for (const auto& r : ranks_) {
    out += r.retry();
  }
  return out;
}

std::uint64_t WorldStats::max_words(Phase phase) const {
  std::uint64_t best = 0;
  for (const auto& r : ranks_) {
    best = std::max(best, r.phase(phase).words_sent);
  }
  return best;
}

std::uint64_t WorldStats::max_messages(Phase phase) const {
  std::uint64_t best = 0;
  for (const auto& r : ranks_) {
    best = std::max(best, r.phase(phase).messages_sent);
  }
  return best;
}

std::uint64_t WorldStats::max_flops(Phase phase) const {
  std::uint64_t best = 0;
  for (const auto& r : ranks_) {
    best = std::max(best, r.phase(phase).flops);
  }
  return best;
}

double WorldStats::modeled_phase_seconds(Phase phase,
                                         const MachineModel& m) const {
  double worst = 0;
  for (const auto& r : ranks_) {
    const auto& c = r.phase(phase);
    const double words = static_cast<double>(
        std::max(c.words_sent, c.words_received));
    const double t = m.alpha_seconds_per_message *
                         static_cast<double>(c.messages_sent) +
                     m.beta_seconds_per_word * words +
                     m.gamma_seconds_per_flop * static_cast<double>(c.flops);
    worst = std::max(worst, t);
  }
  return worst;
}

double WorldStats::modeled_seconds(std::initializer_list<Phase> phases,
                                   const MachineModel& m) const {
  double sum = 0;
  for (const Phase p : phases) {
    sum += modeled_phase_seconds(p, m);
  }
  return sum;
}

double WorldStats::modeled_kernel_seconds(const MachineModel& m) const {
  return modeled_seconds(
      {Phase::Replication, Phase::Propagation, Phase::Computation}, m);
}

double WorldStats::modeled_comm_seconds(const MachineModel& m) const {
  return modeled_seconds({Phase::Replication, Phase::Propagation}, m);
}

namespace {

double phase_seconds(const PhaseCounters& c, const MachineModel& m) {
  const double words =
      static_cast<double>(std::max(c.words_sent, c.words_received));
  return m.alpha_seconds_per_message *
             static_cast<double>(c.messages_sent) +
         m.beta_seconds_per_word * words +
         m.gamma_seconds_per_flop * static_cast<double>(c.flops);
}

} // namespace

double WorldStats::measured_phase_seconds(Phase phase) const {
  double worst = 0;
  for (const auto& r : ranks_) {
    worst = std::max(worst, r.seconds(phase));
  }
  return worst;
}

double WorldStats::measured_kernel_seconds() const {
  double worst = 0;
  for (const auto& r : ranks_) {
    worst = std::max(worst, r.seconds(Phase::Replication) +
                                r.seconds(Phase::Propagation) +
                                r.seconds(Phase::Computation));
  }
  return worst;
}

double WorldStats::load_imbalance() const {
  if (ranks_.empty()) return 1.0;
  double worst = 0.0;
  double sum = 0.0;
  for (const auto& r : ranks_) {
    const auto c = r.total();
    const double load =
        static_cast<double>(c.words_sent) + static_cast<double>(c.flops);
    worst = std::max(worst, load);
    sum += load;
  }
  const double mean = sum / static_cast<double>(ranks_.size());
  return mean > 0.0 ? worst / mean : 1.0;
}

double WorldStats::modeled_overlap_seconds(const MachineModel& m) const {
  double worst = 0;
  for (const auto& r : ranks_) {
    const double repl = phase_seconds(r.phase(Phase::Replication), m);
    const double prop = phase_seconds(r.phase(Phase::Propagation), m);
    const double comp = phase_seconds(r.phase(Phase::Computation), m);
    worst = std::max(worst, repl + std::max(prop, comp));
  }
  return worst;
}

} // namespace dsk
