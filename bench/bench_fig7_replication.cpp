/// Figure 7 reproduction: predicted vs observed optimal replication
/// factors for the 1.5D dense-shifting algorithm across weak-scaling
/// setup 1, for the three eliding strategies. The paper's point: the
/// fused algorithms save communication by CHANGING the optimal
/// replication factor — reuse raises it (c* = sqrt(2p)), fusion lowers
/// it (c* = sqrt(p/2)) — not merely by dropping a phase.
///
/// Section 2 measures the SpComm3D-style replication collectives: for
/// each family with dense fiber collectives, max-per-rank replication
/// words under the Dense and Auto modes on a power-law (R-MAT)
/// instance. Section 3 measures the column-support PROPAGATION
/// collectives the same way: max-per-rank propagation words under the
/// Dense and Auto modes for every family with dense circulating blocks.
/// Section 4 sweeps the wire value precision (runtime/wire.hpp) under
/// the Auto collectives, on the R-MAT instance and a near-dense one
/// where sparse replication pays only through the bitmap support header.
/// `--out <path>` writes every measurement as JSON records for the
/// perf-trajectory baseline (BENCH_replication.json); the process exits
/// nonzero if Auto ever moves more words than Dense in sections 2-4, if
/// Auto propagation fails to show a STRICT saving on the R-MAT instance
/// for the compressible families, or if Auto fails to strictly undercut
/// Dense for every family on the near-dense instance, so CI catches
/// word regressions.

#include <cmath>

#include "bench_common.hpp"

using namespace dsk;
using namespace dsk::bench;

namespace {

int observed_best_c(Elision elision, int p, const Workload& w, int c_max) {
  int best_c = 1;
  std::uint64_t best = 0;
  bool first = true;
  for (const int c :
       admissible_replication_factors(AlgorithmKind::DenseShift15D, p,
                                      c_max)) {
    if (c == p && p > 1) continue; // degenerate grid (see bench_common)
    const auto outcome = run_fusedmm_once(AlgorithmKind::DenseShift15D,
                                          elision, p, c, w);
    if (first || outcome.comm_words < best) {
      best = outcome.comm_words;
      best_c = c;
      first = false;
    }
  }
  return best_c;
}

std::uint64_t replication_words(AlgorithmKind kind, int p, int c,
                                const Workload& w, ReplicationMode mode) {
  AlgorithmOptions options;
  options.replication = mode;
  const auto result = make_plan(kind, p, c, w.s, w.a.cols(), options)
                          .execute_fusedmm(FusedOrientation::A,
                                           Elision::None, w.s, w.a, w.b);
  return result.stats.max_words(Phase::Replication);
}

/// Section 2: Auto vs dense replication collectives on a power-law
/// instance. Returns false if Auto ever moves more words than Dense.
bool run_mode_comparison(JsonRecords& records) {
  print_header("Replication collectives: dense vs auto (R-MAT)");
  const Index n = 512 * env_scale();
  const Index d = 4;
  const Index r = 32;
  const auto w = make_rmat_workload(n, d, r, /*seed=*/777);
  struct GridCase {
    AlgorithmKind kind;
    int p;
    int c;
  };
  const std::vector<GridCase> cases = {
      {AlgorithmKind::DenseShift15D, 16, 4},
      {AlgorithmKind::SparseShift15D, 16, 4},
      {AlgorithmKind::DenseRepl25D, 16, 4},
      {AlgorithmKind::SparseRepl25D, 16, 4},
  };
  std::printf("%-18s %4s %3s | %12s %12s | %8s\n", "algorithm", "p", "c",
              "dense", "auto", "saving");
  bool auto_bounded = true;
  for (const auto& gc : cases) {
    std::uint64_t words[2] = {0, 0};
    const ReplicationMode modes[] = {ReplicationMode::Dense,
                                     ReplicationMode::Auto};
    for (int i = 0; i < 2; ++i) {
      words[i] = replication_words(gc.kind, gc.p, gc.c, w, modes[i]);
      records.add()
          .field("bench", "fig7_replication")
          .field("setup", "rmat")
          .field("algorithm", to_string(gc.kind))
          .field("elision", to_string(Elision::None))
          .field("mode", to_string(modes[i]))
          .field("p", gc.p)
          .field("c", gc.c)
          .field("n", static_cast<std::int64_t>(w.s.rows()))
          .field("nnz", static_cast<std::int64_t>(w.s.nnz()))
          .field("r", static_cast<std::int64_t>(w.r))
          .field("replication_words", words[i]);
    }
    const double saving =
        words[0] > 0
            ? 100.0 * (1.0 - static_cast<double>(words[1]) / words[0])
            : 0.0;
    std::printf("%-18s %4d %3d | %12llu %12llu | %7.1f%%\n",
                to_string(gc.kind).c_str(), gc.p, gc.c,
                static_cast<unsigned long long>(words[0]),
                static_cast<unsigned long long>(words[1]), saving);
    auto_bounded &= words[1] <= words[0];
  }
  std::printf("\nInvariant: auto <= dense on every instance — %s.\n",
              auto_bounded ? "HOLDS" : "VIOLATED");
  return auto_bounded;
}

std::uint64_t propagation_words(AlgorithmKind kind, int p, int c,
                                const Workload& w, PropagationMode mode) {
  AlgorithmOptions options;
  options.propagation = mode;
  const auto result = make_plan(kind, p, c, w.s, w.a.cols(), options)
                          .execute_fusedmm(FusedOrientation::A,
                                           Elision::None, w.s, w.a, w.b);
  return result.stats.max_words(Phase::Propagation);
}

/// Section 3: column-support propagation compression on the same
/// power-law instance. Returns false if Auto ever moves more
/// max-per-rank propagation words than Dense, or fails to STRICTLY
/// undercut Dense on the families with dense circulating blocks (the
/// homeward hop alone guarantees a saving whenever a ring is longer
/// than one).
bool run_propagation_comparison(JsonRecords& records) {
  print_header("Propagation collectives: dense vs auto (R-MAT)");
  const Index n = 512 * env_scale();
  const Index d = 4;
  const Index r = 32;
  const auto w = make_rmat_workload(n, d, r, /*seed=*/777);
  struct GridCase {
    AlgorithmKind kind;
    int p;
    int c;
    bool compressible; // dense circulating blocks to elide?
  };
  const std::vector<GridCase> cases = {
      {AlgorithmKind::DenseShift15D, 16, 4, true},
      {AlgorithmKind::SparseShift15D, 16, 4, false},
      {AlgorithmKind::DenseRepl25D, 16, 4, true},
      {AlgorithmKind::SparseRepl25D, 16, 4, true},
  };
  std::printf("%-18s %4s %3s | %12s %12s | %8s\n", "algorithm", "p", "c",
              "dense", "auto", "saving");
  bool gates_hold = true;
  for (const auto& gc : cases) {
    std::uint64_t words[2] = {0, 0};
    const PropagationMode modes[] = {PropagationMode::Dense,
                                     PropagationMode::Auto};
    for (int i = 0; i < 2; ++i) {
      words[i] = propagation_words(gc.kind, gc.p, gc.c, w, modes[i]);
      records.add()
          .field("bench", "fig7_propagation")
          .field("setup", "rmat")
          .field("algorithm", to_string(gc.kind))
          .field("elision", to_string(Elision::None))
          .field("replication", to_string(ReplicationMode::Dense))
          .field("propagation", to_string(modes[i]))
          .field("p", gc.p)
          .field("c", gc.c)
          .field("n", static_cast<std::int64_t>(w.s.rows()))
          .field("nnz", static_cast<std::int64_t>(w.s.nnz()))
          .field("r", static_cast<std::int64_t>(w.r))
          .field("propagation_words", words[i]);
    }
    const double saving =
        words[0] > 0
            ? 100.0 * (1.0 - static_cast<double>(words[1]) / words[0])
            : 0.0;
    std::printf("%-18s %4d %3d | %12llu %12llu | %7.1f%%\n",
                to_string(gc.kind).c_str(), gc.p, gc.c,
                static_cast<unsigned long long>(words[0]),
                static_cast<unsigned long long>(words[1]), saving);
    gates_hold &= words[1] <= words[0];
    if (gc.compressible) gates_hold &= words[1] < words[0];
  }
  std::printf("\nInvariants: auto <= dense everywhere, auto < dense on "
              "the compressible families — %s.\n",
              gates_hold ? "HOLD" : "VIOLATED");
  return gates_hold;
}

/// Near-dense row support: every 64th row left EMPTY so each 64-row
/// fiber chunk supports exactly 63 of its 64 rows — inside the narrow
/// band where one-word-per-row headers would price the row-sparse path
/// out of Auto (63*(r+1)+1 > 64*r at r=32) but the bitmap header prices
/// it back in (63*r + one bitmap word < 64*r).
Workload make_banded_support_workload(Index n, Index d, Index r,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const CooMatrix full = erdos_renyi_fixed_row(n, n, d, rng);
  CooMatrix s(n, n);
  s.reserve(full.nnz());
  for (Index k = 0; k < full.nnz(); ++k) {
    const auto e = full.entry(k);
    if (e.row % 64 == 63) continue;
    s.push_back(e.row, e.col, e.value);
  }
  s.sort_and_combine();
  Workload w{std::move(s), DenseMatrix(n, r), DenseMatrix(n, r), r};
  w.a.fill_random(rng);
  w.b.fill_random(rng);
  return w;
}

/// Max-per-rank replication plus propagation words of one FusedMM call
/// with both transports Auto (or both Dense) at value precision
/// `precision`.
std::uint64_t comm_words(AlgorithmKind kind, int p, int c, const Workload& w,
                         bool auto_modes, WirePrecision precision) {
  AlgorithmOptions options;
  if (auto_modes) {
    options.replication = ReplicationMode::Auto;
    options.propagation = PropagationMode::Auto;
  }
  options.codec.precision = precision;
  const auto result = make_plan(kind, p, c, w.s, w.a.cols(), options)
                          .execute_fusedmm(FusedOrientation::A,
                                           Elision::None, w.s, w.a, w.b);
  return result.stats.max_words(Phase::Replication) +
         result.stats.max_words(Phase::Propagation);
}

/// Section 4: value precision (runtime/wire.hpp) under the Auto
/// collectives, on the power-law instance plus a near-dense one where a
/// one-word-per-row header would price the row-sparse path OUT of Auto
/// (support ~ 0.98 rows: support*(r+1) > rows*r) but the bitmap the
/// support header takes there prices it back IN
/// (support*r + rows/64 < rows*r).
/// Returns false unless full-precision Auto moves at most as many
/// max-per-rank words as Dense on EVERY instance, and strictly fewer for
/// EVERY family on the near-dense one. 1.5D sparse shifting circulates
/// triplets, so there only the row-support replication can save, and
/// only with the bitmap header: the gate catches a header regression.
bool run_wire_comparison(JsonRecords& records) {
  print_header("Wire precision under Auto (R-MAT + near-dense)");
  const Index r = 32;
  struct Instance {
    const char* setup;
    Workload w;
  };
  const Index n_rmat = 512 * env_scale();
  const Index n_dense = 4096;
  const std::vector<Instance> instances = {
      {"rmat", make_rmat_workload(n_rmat, 4, r, /*seed=*/777)},
      {"near-dense", make_banded_support_workload(n_dense, 32, r,
                                                  /*seed=*/778)},
  };
  const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
      AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D};
  const WirePrecision precisions[] = {WirePrecision::Full,
                                      WirePrecision::F32,
                                      WirePrecision::BF16};
  const int p = 16;
  const int c = 4;
  bool never_worse = true;
  bool near_dense_wins = true;
  std::printf("%-11s %-18s | %12s %12s | %8s\n", "setup", "algorithm",
              "dense", "auto", "saving");
  for (const auto& inst : instances) {
    for (const AlgorithmKind kind : kinds) {
      const std::uint64_t dense =
          comm_words(kind, p, c, inst.w, false, WirePrecision::Full);
      std::uint64_t full_auto = 0;
      for (const WirePrecision precision : precisions) {
        const std::uint64_t words =
            comm_words(kind, p, c, inst.w, true, precision);
        if (precision == WirePrecision::Full) full_auto = words;
        records.add()
            .field("bench", "fig7_wire")
            .field("setup", inst.setup)
            .field("algorithm", to_string(kind))
            .field("elision", to_string(Elision::None))
            .field("replication", to_string(ReplicationMode::Auto))
            .field("propagation", to_string(PropagationMode::Auto))
            .field("precision", to_string(precision))
            .field("p", p)
            .field("c", c)
            .field("n", static_cast<std::int64_t>(inst.w.s.rows()))
            .field("nnz", static_cast<std::int64_t>(inst.w.s.nnz()))
            .field("r", static_cast<std::int64_t>(inst.w.r))
            .field("wire_words", words);
      }
      const double saving =
          dense > 0
              ? 100.0 * (1.0 - static_cast<double>(full_auto) / dense)
              : 0.0;
      std::printf("%-11s %-18s | %12llu %12llu | %7.1f%%\n", inst.setup,
                  to_string(kind).c_str(),
                  static_cast<unsigned long long>(dense),
                  static_cast<unsigned long long>(full_auto), saving);
      never_worse &= full_auto <= dense;
      if (std::string(inst.setup) == "near-dense") {
        near_dense_wins &= full_auto < dense;
      }
    }
  }
  std::printf("\nInvariants: auto <= dense on every instance — %s; "
              "strictly fewer words for every family on the near-dense "
              "instance — %s.\n",
              never_worse ? "HOLDS" : "VIOLATED",
              near_dense_wins ? "HOLDS" : "VIOLATED");
  return never_worse && near_dense_wins;
}

} // namespace

int main(int argc, char** argv) {
  const std::string out_path = out_path_from_args(argc, argv);
  JsonRecords records;
  const Index n0 = 1024 * env_scale();
  const Index d0 = 4;
  const Index r = 32;
  const int c_max = 16; // the paper tested factors 1..16 (8 for weak)
  const std::vector<int> node_counts{2, 4, 8, 16, 32, 64};

  std::printf("Figure 7: optimal replication factor vs node count, 1.5D "
              "dense shifting (weak scaling setup 1)\n");
  std::printf("%6s | %9s %9s | %9s %9s | %9s %9s\n", "p", "none*", "none",
              "reuse*", "reuse", "fusion*", "fusion");
  std::printf("       (starred = closed-form prediction, unstarred = "
              "observed argmin of measured comm time)\n");

  bool ordering_holds = true;
  for (const int p : node_counts) {
    const auto w = make_er_workload(n0 * p, d0, r,
                                    /*seed=*/400 + static_cast<unsigned>(p));
    const double phi = phi_ratio(w.s, r);
    const double pred_none = closed_form_optimal_c(
        AlgorithmKind::DenseShift15D, Elision::None, p, phi);
    const double pred_reuse = closed_form_optimal_c(
        AlgorithmKind::DenseShift15D, Elision::ReplicationReuse, p, phi);
    const double pred_fusion = closed_form_optimal_c(
        AlgorithmKind::DenseShift15D, Elision::LocalKernelFusion, p, phi);
    const int obs_none = observed_best_c(Elision::None, p, w, c_max);
    const int obs_reuse =
        observed_best_c(Elision::ReplicationReuse, p, w, c_max);
    const int obs_fusion =
        observed_best_c(Elision::LocalKernelFusion, p, w, c_max);
    std::printf("%6d | %9.2f %9d | %9.2f %9d | %9.2f %9d\n", p, pred_none,
                obs_none, pred_reuse, obs_reuse, pred_fusion, obs_fusion);
    ordering_holds &= obs_reuse >= obs_none && obs_none >= obs_fusion;
    const struct {
      Elision elision;
      double predicted;
      int observed;
    } rows[] = {{Elision::None, pred_none, obs_none},
                {Elision::ReplicationReuse, pred_reuse, obs_reuse},
                {Elision::LocalKernelFusion, pred_fusion, obs_fusion}};
    for (const auto& row : rows) {
      records.add()
          .field("bench", "fig7_optimal_c")
          .field("setup", "weak1")
          .field("algorithm", to_string(AlgorithmKind::DenseShift15D))
          .field("elision", to_string(row.elision))
          .field("p", p)
          .field("n", static_cast<std::int64_t>(w.s.rows()))
          .field("nnz", static_cast<std::int64_t>(w.s.nnz()))
          .field("r", static_cast<std::int64_t>(r))
          .field("predicted_c", row.predicted)
          .field("observed_c", row.observed);
    }
  }

  std::printf("\nPaper check: c*(reuse) >= c*(none) >= c*(fusion) at every "
              "node count — %s.\n",
              ordering_holds ? "HOLDS" : "VIOLATED");

  const bool auto_bounded = run_mode_comparison(records);
  const bool propagation_bounded = run_propagation_comparison(records);
  const bool wire_bounded = run_wire_comparison(records);
  const int write_status = finish_records(records, out_path);
  if (write_status != 0) return write_status;
  return auto_bounded && propagation_bounded && wire_bounded ? 0 : 1;
}
