/// Ablation: communication/computation overlap (the paper's future-work
/// direction in its Conclusions: "Further performance improvement may be
/// possible by overlapping communication in the propagation phase of any
/// of our algorithms with local computation", e.g. with one-sided MPI /
/// RDMA).
///
/// Two views, one modeled and one measured:
///  1. Modeled upper bound — using the exact per-rank phase costs from
///     the simulator, kernel time with propagation fully hidden behind
///     local kernels vs the bulk-synchronous sum.
///  2. Measured — the propagation engine actually implements both
///     schedules (dist/shift_loop.hpp): the bulk-synchronous BSP loop
///     and the double-buffered loop that forwards blocks before
///     computing and receives after. The simulated ranks are real
///     threads running real kernels, so the schedules' waiting structure
///     is directly measurable as per-rank wall-clock spans, and the two
///     outputs are compared bit-for-bit.
///
/// The interesting structure: overlap pays most where propagation and
/// computation are balanced (dense-shifting at moderate phi) and least
/// where one side dominates (sparse-shifting at low phi is
/// propagation-bound; high-phi dense problems are compute-bound).

#include "bench_common.hpp"
#include "common/timer.hpp"

using namespace dsk;
using namespace dsk::bench;

namespace {

struct Measured {
  double wall_seconds = 0; ///< best-of-N host wall for kRepeats calls
  DenseMatrix output;
  WorldStats stats; ///< from the last trial (counters are deterministic)
};

/// FusedMM calls per timed run: repeating inside one world amortizes
/// world/setup cost so the schedules' per-step waiting structure is
/// what's measured.
constexpr int kRepeats = 8;

Measured run_measured(AlgorithmKind kind, Elision elision, int p, int c,
                      ShiftSchedule schedule, const Workload& w,
                      int trials,
                      ReplicationMode mode = ReplicationMode::Dense) {
  AlgorithmOptions options;
  options.schedule = schedule;
  options.replication = mode;
  auto algo = make_algorithm(kind, p, c, options);
  Measured best;
  for (int trial = 0; trial < trials; ++trial) {
    Timer timer;
    auto result = algo->run_fusedmm(FusedOrientation::A, elision, w.s,
                                    w.a, w.b, kRepeats);
    const double wall = timer.seconds();
    if (trial == 0 || wall < best.wall_seconds) {
      best.wall_seconds = wall;
    }
    best.output = std::move(result.output);
    best.stats = std::move(result.stats);
  }
  return best;
}

} // namespace

int main() {
  print_header("Ablation: upper bound on comm/comp overlap "
               "(paper's future work)");

  const Index n = 8192 * env_scale();
  const Index r = 32;
  const int p = 16;

  std::printf("n = %lld, r = %lld, p = %d; modeled ms for one FusedMM\n",
              static_cast<long long>(n), static_cast<long long>(r), p);
  std::printf("%-30s %6s %5s %10s %10s %9s\n", "algorithm", "nnz/row",
              "c", "bulk-sync", "overlap", "saving");

  for (const Index d : {2, 8, 32}) {
    const auto w = make_er_workload(n, d, r,
                                    /*seed=*/9000 + static_cast<unsigned>(d));
    for (const auto& variant : paper_variants()) {
      // Use the model-best admissible c for a fair comparison.
      const auto best =
          best_replication_factor(variant.kind, variant.elision,
                                  w.cost_inputs(p, 1), /*c_max=*/8);
      if (variant.kind == AlgorithmKind::SparseShift15D &&
          w.r % (p / best.c) != 0) {
        continue;
      }
      auto algo = make_algorithm(variant.kind, p, best.c);
      const auto result = algo->run_fusedmm(
          FusedOrientation::A, variant.elision, w.s, w.a, w.b);
      const auto m = machine();
      const double bulk = result.stats.modeled_kernel_seconds(m);
      const double overlapped = result.stats.modeled_overlap_seconds(m);
      std::printf("%-30s %6lld %5d %9.4f %10.4f %8.1f%%\n",
                  variant.name, static_cast<long long>(d), best.c,
                  1e3 * bulk, 1e3 * overlapped,
                  100.0 * (bulk - overlapped) / bulk);
    }
    std::printf("\n");
  }

  std::printf(
      "Reading: 'overlap' hides propagation behind local kernels "
      "(double-buffered bound, repl + max(prop, comp) per rank);\n"
      "'saving' compares it to bulk-sync. The closed-form equivalents "
      "(Table III words) are in\n"
      "model/cost_model.hpp:schedule_bounds.\n");

  // ---- Measured overlap: bulk-synchronous vs double-buffered schedule
  // on a propagation-dominated instance (many shifts, light local
  // kernels) — the regime where the schedule's waiting structure, not
  // arithmetic, sets the wall-clock. The bulk-synchronous loop pays a
  // rendezvous per shift; the double-buffered loop forwards blocks
  // before computing and lets ranks pipeline across steps.
  print_header("Measured: bulk-synchronous vs double-buffered schedule");
  const Index nm = 1024 * env_scale();
  const auto wm = make_er_workload(nm, 4, r, /*seed=*/9008);
  std::printf("propagation-bound instance: n = %lld, nnz/row = 4, "
              "r = %lld, p = %d; host wall for %d FusedMM calls, best of "
              "5 runs; identical output required\n",
              static_cast<long long>(nm), static_cast<long long>(r), p,
              kRepeats);
  std::printf("%-30s %5s %12s %12s %8s %10s\n", "algorithm", "c",
              "bulk-sync", "dbl-buffer", "saving", "identical");
  const int trials = 5;
  bool all_identical = true;
  bool buffered_wins = true;
  const struct {
    const char* name;
    AlgorithmKind kind;
    Elision elision;
    int c;
  } measured_cases[] = {
      {"1.5D DenseShift  ReplReuse", AlgorithmKind::DenseShift15D,
       Elision::ReplicationReuse, 1},
      {"1.5D SparseShift ReplReuse", AlgorithmKind::SparseShift15D,
       Elision::ReplicationReuse, 1},
      {"2.5D DenseRepl   ReplReuse", AlgorithmKind::DenseRepl25D,
       Elision::ReplicationReuse, 1},
      {"2.5D SparseRepl  None", AlgorithmKind::SparseRepl25D,
       Elision::None, 1},
  };
  for (const auto& cs : measured_cases) {
    const auto bulk =
        run_measured(cs.kind, cs.elision, p, cs.c,
                     ShiftSchedule::BulkSynchronous, wm, trials);
    const auto buffered =
        run_measured(cs.kind, cs.elision, p, cs.c,
                     ShiftSchedule::DoubleBuffered, wm, trials);
    const bool identical =
        bulk.output.max_abs_diff(buffered.output) == 0.0;
    all_identical = all_identical && identical;
    buffered_wins =
        buffered_wins && buffered.wall_seconds <= bulk.wall_seconds;
    std::printf("%-30s %5d %10.3fms %10.3fms %7.1f%% %10s\n", cs.name,
                cs.c, 1e3 * bulk.wall_seconds, 1e3 * buffered.wall_seconds,
                100.0 * (bulk.wall_seconds - buffered.wall_seconds) /
                    bulk.wall_seconds,
                identical ? "yes" : "NO");
  }
  std::printf("\nMeasured check: double-buffered <= "
              "bulk-synchronous with bit-identical output on every case "
              "— %s.\n",
              all_identical && buffered_wins ? "HOLDS" : "VIOLATED");

  // ---- Measured overlap on a REPLICATION-bound instance: large c (long
  // fiber collectives) and a short shift ring (L = p/c = 2 steps), so
  // the all-gather prefix — which neither schedule can hide — dominates
  // and the propagation overlap has little to win. This is the
  // acceptance gate: bit-identical output, word and message counts
  // unchanged, and double-buffered wall no worse than bulk-synchronous.
  print_header("Measured: double-buffered vs bulk-synchronous "
               "(replication-bound, c = 8)");
  const Index nr = 1024 * env_scale();
  const int cr = 8;
  const auto wr = make_rmat_workload(nr, 4, 64, /*seed=*/9010);
  const int gate_trials = 7;
  std::printf("replication-bound instance: n = %lld, nnz/row ~ 4, "
              "r = 64, p = %d, c = %d (L = %d shifts); host wall for %d "
              "FusedMM calls, best of %d interleaved runs\n",
              static_cast<long long>(nr), p, cr, p / cr, kRepeats,
              gate_trials);
  std::printf("%-30s %12s %12s %8s\n", "replication mode", "bulk-sync",
              "dbl-buffer", "saving");
  bool repl_identical = true;
  bool repl_counts_unchanged = true;
  bool repl_nonregressing = true;
  for (const ReplicationMode mode :
       {ReplicationMode::Dense, ReplicationMode::Auto}) {
    const auto kind = AlgorithmKind::DenseShift15D;
    const auto elision = Elision::ReplicationReuse;
    // Interleave the trials (one of each schedule per round) so a slow
    // host period hits both schedules equally instead of skewing
    // whichever one owned that time window; keep the per-schedule best.
    Measured bulk, buffered;
    for (int trial = 0; trial < gate_trials; ++trial) {
      auto b = run_measured(kind, elision, p, cr,
                            ShiftSchedule::BulkSynchronous, wr, 1, mode);
      auto d = run_measured(kind, elision, p, cr,
                            ShiftSchedule::DoubleBuffered, wr, 1, mode);
      const auto keep_best = [trial](Measured& best, Measured&& fresh) {
        if (trial == 0 || fresh.wall_seconds < best.wall_seconds) {
          best = std::move(fresh);
        }
      };
      keep_best(bulk, std::move(b));
      keep_best(buffered, std::move(d));
    }
    repl_identical = repl_identical &&
                     bulk.output.max_abs_diff(buffered.output) == 0.0;
    for (const Phase phase : {Phase::Replication, Phase::Propagation}) {
      repl_counts_unchanged =
          repl_counts_unchanged &&
          buffered.stats.max_words(phase) == bulk.stats.max_words(phase) &&
          buffered.stats.max_messages(phase) ==
              bulk.stats.max_messages(phase);
    }
    // 5% headroom: interleaved best-of-7 is stable locally, but shared
    // CI runners jitter at the sub-millisecond scale this instance runs
    // at. On a 4-core host double-buffered measures ~20% under
    // bulk-synchronous here, so the margin only absorbs noise.
    repl_nonregressing =
        repl_nonregressing &&
        buffered.wall_seconds <= 1.05 * bulk.wall_seconds;
    std::printf("%-30s %10.3fms %10.3fms %7.1f%%\n",
                to_string(mode).c_str(), 1e3 * bulk.wall_seconds,
                1e3 * buffered.wall_seconds,
                100.0 * (bulk.wall_seconds - buffered.wall_seconds) /
                    bulk.wall_seconds);
  }
  std::printf("\nReplication-bound gate: bit-identical output %s, word "
              "and message counts unchanged %s, double-buffered wall <= "
              "1.05 x bulk-synchronous %s.\n",
              repl_identical ? "HOLDS" : "VIOLATED",
              repl_counts_unchanged ? "HOLDS" : "VIOLATED",
              repl_nonregressing ? "HOLDS" : "VIOLATED");
  // Numerics and word/message counts are hard failures, as is a
  // double-buffered schedule slower than bulk-synchronous on the
  // replication-bound instance; wall-clock inversions in the general
  // (propagation-bound) table above are reported but not gated — loaded
  // hosts jitter.
  return all_identical && repl_identical && repl_counts_unchanged &&
                 repl_nonregressing
             ? 0
             : 1;
}
