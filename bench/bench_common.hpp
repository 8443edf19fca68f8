#pragma once
/// \file bench_common.hpp
/// Shared pieces of the paper-reproduction benchmark harness: workload
/// builders (Erdos-Renyi weak-scaling instances, R-MAT stand-ins for the
/// Table V matrices), the simulation-scale parameters, run helpers that
/// evaluate a FusedMM configuration and return the paper's "time for 5
/// FusedMM calls" under the Cori-like machine model, and table printing.
///
/// Scale: the paper runs up to 256 KNL nodes and n = 2^24; this harness
/// simulates the same algorithms with exact communication accounting at
/// n scaled down ~2^6 (keeping phi and nnz-per-row, which select the
/// winning algorithm) so every figure regenerates in seconds on a
/// laptop. Set DSK_BENCH_SCALE=2 (or 4) to double/quadruple n.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sparse/generate.hpp"

#if __has_include("dist/algorithm.hpp")
#define DSK_BENCH_HAVE_DIST 1
#include "dist/grid.hpp"
#include "dist/plan.hpp"
#include "model/optimal_c.hpp"
#include "model/predictor.hpp"
#include "runtime/machine.hpp"
#endif

namespace dsk::bench {

/// Machine-readable benchmark output: a flat JSON array of records, one
/// per measurement, written atomically on write(). Keys and values are
/// caller-controlled identifiers/numbers, so only minimal string
/// escaping is applied. This is the interchange format for the repo's
/// perf-trajectory tracking (BENCH_*.json files committed per PR).
class JsonRecords {
 public:
  class Record {
   public:
    Record& field(const std::string& key, const std::string& value) {
      std::string quoted;
      const std::string escaped = escape(value);
      quoted.reserve(escaped.size() + 2);
      quoted += '"';
      quoted += escaped;
      quoted += '"';
      fields_.emplace_back(key, std::move(quoted));
      return *this;
    }
    Record& field(const std::string& key, const char* value) {
      return field(key, std::string(value));
    }
    Record& field(const std::string& key, double value) {
      // inf/nan are not valid JSON tokens (a zero-duration timing would
      // otherwise poison the whole file); emit null instead.
      if (!std::isfinite(value)) {
        fields_.emplace_back(key, "null");
        return *this;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", value);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Record& field(const std::string& key, std::int64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Record& field(const std::string& key, std::uint64_t value) {
      fields_.emplace_back(key, std::to_string(value));
      return *this;
    }
    Record& field(const std::string& key, int value) {
      return field(key, static_cast<std::int64_t>(value));
    }

   private:
    friend class JsonRecords;
    static std::string escape(const std::string& s) {
      std::string out;
      for (const char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Record& add() {
    records_.emplace_back();
    return records_.back();
  }

  /// Returns false if the file could not be opened or fully written.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out << "  {";
      const auto& fields = records_[i].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        out << "\"" << Record::escape(fields[f].first)
            << "\": " << fields[f].second;
        if (f + 1 < fields.size()) out << ", ";
      }
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    out.flush();
    return out.good();
  }

 private:
  std::vector<Record> records_;
};

inline int env_scale() {
  const char* s = std::getenv("DSK_BENCH_SCALE");
  const int v = s != nullptr ? std::atoi(s) : 1;
  return v >= 1 ? v : 1;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Everything below drives the *distributed* figure benchmarks and needs
// the dist layer (grids, algorithms, cost model). Guarded so the local
// kernel benchmark keeps building before src/dist lands.
#ifdef DSK_BENCH_HAVE_DIST

/// The paper reports "Time for 5 FusedMM Calls"; communication scales
/// exactly linearly in repetitions (tested), so we run one call and
/// scale the modeled time.
constexpr int kPaperCalls = 5;

inline MachineModel machine() { return MachineModel::cori_knl(); }

struct Workload {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
  Index r = 0;

  CostInputs cost_inputs(int p, int c) const {
    return {static_cast<double>(s.rows()), static_cast<double>(s.cols()),
            static_cast<double>(r), static_cast<double>(s.nnz()), p, c};
  }
};

/// Square Erdos-Renyi workload with exact nnz-per-row (the paper's weak
/// scaling generator) and random dense matrices.
inline Workload make_er_workload(Index n, Index nnz_per_row, Index r,
                                 std::uint64_t seed) {
  Rng rng(seed);
  Workload w{erdos_renyi_fixed_row(n, n, nnz_per_row, rng), DenseMatrix(n, r),
             DenseMatrix(n, r), r};
  w.a.fill_random(rng);
  w.b.fill_random(rng);
  return w;
}

/// R-MAT workload standing in for a Table V matrix (power-law degrees).
inline Workload make_rmat_workload(Index n, Index nnz_per_row, Index r,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Workload w{rmat(n, n, n * nnz_per_row, rng), DenseMatrix(n, r),
             DenseMatrix(n, r), r};
  w.a.fill_random(rng);
  w.b.fill_random(rng);
  return w;
}

struct RunOutcome {
  double comm_seconds = 0;  ///< modeled, for kPaperCalls calls
  double total_seconds = 0; ///< comm + computation
  double replication_seconds = 0;
  double propagation_seconds = 0;
  double computation_seconds = 0;
  /// Max-over-ranks communication words for ONE call (the metric of the
  /// paper's bandwidth analysis; latency-free).
  std::uint64_t comm_words = 0;
  int c = 1;
};

/// Run one FusedMM call and report modeled times for kPaperCalls calls.
inline RunOutcome run_fusedmm_once(AlgorithmKind kind, Elision elision,
                                   int p, int c, const Workload& w,
                                   FusedOrientation orientation =
                                       FusedOrientation::A) {
  const auto result = make_plan(kind, p, c, w.s, w.a.cols())
                          .execute_fusedmm(orientation, elision, w.s, w.a,
                                           w.b);
  const auto m = machine();
  RunOutcome out;
  out.replication_seconds =
      kPaperCalls * result.stats.modeled_phase_seconds(Phase::Replication, m);
  out.propagation_seconds =
      kPaperCalls * result.stats.modeled_phase_seconds(Phase::Propagation, m);
  out.computation_seconds =
      kPaperCalls * result.stats.modeled_phase_seconds(Phase::Computation, m);
  out.comm_seconds = out.replication_seconds + out.propagation_seconds;
  out.total_seconds = out.comm_seconds + out.computation_seconds;
  out.comm_words = result.stats.max_words(Phase::Replication) +
                   result.stats.max_words(Phase::Propagation);
  out.c = c;
  return out;
}

/// Sweep the admissible replication factors (capped like the paper's
/// memory limit) and return the best observed total time — the paper
/// reports "the best runtime over replication factors 1 through 16".
inline RunOutcome best_over_c(AlgorithmKind kind, Elision elision, int p,
                              const Workload& w, int c_max = 16,
                              FusedOrientation orientation =
                                  FusedOrientation::A) {
  RunOutcome best;
  bool first = true;
  for (const int c : admissible_replication_factors(kind, p, c_max)) {
    // Exclude fully-degenerate grids (c = p for 1.5D, q = 1 for 2.5D):
    // every shift becomes a free self-message and the dense matrix is
    // replicated on every rank — memory-infeasible at the paper's scale
    // and outside its benchmarked design space.
    if (p > 1) {
      const bool is25d = kind == AlgorithmKind::DenseRepl25D ||
                         kind == AlgorithmKind::SparseRepl25D;
      if (is25d && Grid25D(p, c).q() == 1) continue;
      if (!is25d && c == p) continue;
    }
    if (kind == AlgorithmKind::SparseShift15D && w.r % (p / c) != 0) {
      continue; // r must divide into p/c slices (paper: min c enforced)
    }
    if (kind == AlgorithmKind::SparseRepl25D) {
      const Grid25D grid(p, c);
      if (w.r % (static_cast<Index>(grid.q()) * c) != 0) continue;
    }
    if (kind == AlgorithmKind::DenseRepl25D) {
      const Grid25D grid(p, c);
      if (w.r % grid.q() != 0 ||
          w.s.rows() % (static_cast<Index>(grid.q()) * c) != 0) {
        continue;
      }
    }
    const auto outcome = run_fusedmm_once(kind, elision, p, c, w,
                                          orientation);
    if (first || outcome.total_seconds < best.total_seconds) {
      best = outcome;
      first = false;
    }
  }
  if (first) {
    best.total_seconds = -1; // no admissible configuration
  }
  return best;
}

/// The eight algorithm variants of Figure 4 / Figure 8.
struct Variant {
  const char* name;
  AlgorithmKind kind;
  Elision elision;
};

/// Append one distributed measurement in the BENCH_dist_kernels.json
/// schema: bench/setup identifiers, algorithm + elision, grid (p, c),
/// problem shape, per-phase modeled seconds (for kPaperCalls calls), and
/// the max-per-rank communication words of one call.
inline void add_dist_record(JsonRecords& records, const std::string& bench,
                            const std::string& setup,
                            AlgorithmKind kind, Elision elision, int p,
                            const Workload& w, const RunOutcome& out) {
  records.add()
      .field("bench", bench)
      .field("setup", setup)
      .field("algorithm", to_string(kind))
      .field("elision", to_string(elision))
      .field("p", p)
      .field("c", out.c)
      .field("n", static_cast<std::int64_t>(w.s.rows()))
      .field("nnz", static_cast<std::int64_t>(w.s.nnz()))
      .field("r", static_cast<std::int64_t>(w.r))
      .field("replication_seconds", out.replication_seconds)
      .field("propagation_seconds", out.propagation_seconds)
      .field("computation_seconds", out.computation_seconds)
      .field("total_seconds", out.total_seconds)
      .field("comm_words", out.comm_words);
}

/// Shared `--out <path>` argument handling for the figure benches. A
/// malformed invocation exits immediately: a ~1 minute sweep that ends
/// without the baseline it was asked to write is worse than no run.
inline std::string out_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --out requires a path\n", argv[0]);
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return {};
}

/// Write the records if a path was requested; complain loudly on failure
/// so perf-trajectory tracking never silently loses a baseline.
inline int finish_records(const JsonRecords& records,
                          const std::string& path) {
  if (path.empty()) return 0;
  if (!records.write(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

inline std::vector<Variant> paper_variants() {
  return {
      {"1.5D DenseShift  None", AlgorithmKind::DenseShift15D,
       Elision::None},
      {"1.5D DenseShift  ReplReuse", AlgorithmKind::DenseShift15D,
       Elision::ReplicationReuse},
      {"1.5D DenseShift  LocalFusion", AlgorithmKind::DenseShift15D,
       Elision::LocalKernelFusion},
      {"1.5D SparseShift None", AlgorithmKind::SparseShift15D,
       Elision::None},
      {"1.5D SparseShift ReplReuse", AlgorithmKind::SparseShift15D,
       Elision::ReplicationReuse},
      {"2.5D SparseRepl  None", AlgorithmKind::SparseRepl25D,
       Elision::None},
      {"2.5D DenseRepl   ReplReuse", AlgorithmKind::DenseRepl25D,
       Elision::ReplicationReuse},
      {"2.5D DenseRepl   None", AlgorithmKind::DenseRepl25D,
       Elision::None},
  };
}

#endif // DSK_BENCH_HAVE_DIST

} // namespace dsk::bench
