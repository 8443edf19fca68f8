/// Figure 8 / Table V reproduction: strong scaling on real-world-shaped
/// matrices against the PETSc-like 1D baseline. The SuiteSparse inputs
/// are not available offline, so each is replaced by a seeded R-MAT
/// generator matched in shape and scaled down ~2^7-2^9 in n. Because the
/// embedding width is also scaled (r = 32 instead of the paper's 128),
/// nnz-per-row is scaled by the same factor so that phi = nnz/(n r) —
/// the quantity that selects the winning algorithm — matches the real
/// matrix:
///
///   matrix (paper n, nnz, nnz/row)       phi(r=128)  stand-in (n, d)
///   amazon-large (14.2M, 231M, 16)          0.127     (32768,  4)
///   uk-2002      (18.5M, 298M, 16)          0.126     (32768,  4)
///   eukarya      ( 3.2M, 360M, 111)         0.867     ( 8192, 28)
///   arabic-2005  (22.7M, 640M, 28)          0.220     (32768,  7)
///   twitter7     (41.7M, 1.47B, 35)         0.275     (32768,  9)
///
/// Set DSK_MATRIX_DIR to a directory containing the actual SuiteSparse
/// .mtx files (amazon-large.mtx, uk-2002.mtx, ...) to benchmark the real
/// matrices instead. Reported: modeled time for 5 FusedMM calls at the
/// best replication factor (1..16), plus the baseline's two back-to-back
/// SpMM calls, exactly the paper's protocol.

#include <filesystem>

#include "bench_common.hpp"
#include "dist/problem.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/permute.hpp"

using namespace dsk;
using namespace dsk::bench;

namespace {

/// When DSK_MATRIX_DIR holds <name>.mtx (the actual SuiteSparse file),
/// load it, randomly permute rows/columns for load balance (paper
/// Section VI), and zero-pad to the largest grid under test; otherwise
/// fall back to the R-MAT stand-in.
Workload load_or_generate(const char* name, Index sim_n, Index sim_d,
                          Index r, int max_p) {
  if (const char* dir = std::getenv("DSK_MATRIX_DIR"); dir != nullptr) {
    std::string base(name);
    if (const auto pos = base.find('('); pos != std::string::npos) {
      base = base.substr(0, pos);
    }
    const auto path = std::filesystem::path(dir) / (base + ".mtx");
    if (std::filesystem::exists(path)) {
      std::printf("loading real matrix %s\n", path.c_str());
      Rng rng(4242);
      auto permuted =
          random_permute(read_matrix_market_file(path.string()), rng);
      DenseMatrix a(permuted.matrix.rows(), r);
      DenseMatrix b(permuted.matrix.cols(), r);
      a.fill_random(rng);
      b.fill_random(rng);
      auto padded = pad_problem(AlgorithmKind::DenseRepl25D, max_p, 4,
                                permuted.matrix, a, b);
      return Workload{std::move(padded.s), std::move(padded.a),
                      std::move(padded.b), r};
    }
  }
  return make_rmat_workload(sim_n * env_scale(), sim_d, r,
                            std::hash<std::string>{}(name));
}

} // namespace

int main(int argc, char** argv) {
  const std::string out_path = out_path_from_args(argc, argv);
  JsonRecords records;
  struct MatrixSpec {
    const char* name;
    Index n;
    Index nnz_per_row;
  };
  const MatrixSpec specs[] = {
      {"amazon-large(sim)", 32768, 4},
      {"uk-2002(sim)", 32768, 4},
      {"eukarya(sim)", 8192, 28},
      {"arabic-2005(sim)", 32768, 7},
      {"twitter7(sim)", 32768, 9},
  };
  const Index r = 32;
  const std::vector<int> node_counts{4, 16, 64};

  std::printf("Figure 8: strong scaling on real-world-shaped R-MAT "
              "matrices, r = %lld\n(modeled seconds for %d FusedMM calls; "
              "baseline = 1D PETSc-like, 2 SpMM calls each)\n",
              static_cast<long long>(r), kPaperCalls);

  for (const auto& spec : specs) {
    const auto w = load_or_generate(spec.name, spec.n, spec.nnz_per_row, r,
                                    node_counts.back());
    const double phi = phi_ratio(w.s, r);
    print_header(std::string(spec.name) + "  n=" +
                 std::to_string(w.s.rows()) + " nnz=" +
                 std::to_string(w.s.nnz()) + " phi=" +
                 std::to_string(phi).substr(0, 5));

    std::printf("%-30s", "algorithm \\ p");
    for (const int p : node_counts) std::printf(" %11d", p);
    std::printf("\n");

    std::vector<double> best_ours(node_counts.size(), -1);
    std::vector<double> best_ours_comm(node_counts.size(), -1);
    for (const auto& variant : paper_variants()) {
      std::printf("%-30s", variant.name);
      for (std::size_t i = 0; i < node_counts.size(); ++i) {
        const auto best =
            best_over_c(variant.kind, variant.elision, node_counts[i], w);
        if (best.total_seconds < 0) {
          std::printf(" %11s", "n/a");
          continue;
        }
        std::printf(" %9.3fms", 1e3 * best.total_seconds);
        add_dist_record(records, "fig8_strong_scaling", spec.name,
                        variant.kind, variant.elision, node_counts[i], w,
                        best);
        if (best_ours[i] < 0 || best.total_seconds < best_ours[i]) {
          best_ours[i] = best.total_seconds;
        }
        if (best_ours_comm[i] < 0 || best.comm_seconds < best_ours_comm[i]) {
          best_ours_comm[i] = best.comm_seconds;
        }
      }
      std::printf("\n");
    }

    std::printf("%-30s", "1D PETSc-like (baseline)");
    std::vector<double> baseline(node_counts.size(), -1);
    std::vector<double> baseline_comm(node_counts.size(), -1);
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
      const auto result =
          make_plan(AlgorithmKind::Baseline1D, node_counts[i], 1, w.s,
                    w.a.cols())
              .execute_fusedmm(FusedOrientation::A, Elision::None, w.s, w.a,
                               w.b);
      const auto m = machine();
      baseline_comm[i] = kPaperCalls * result.stats.modeled_comm_seconds(m);
      baseline[i] =
          baseline_comm[i] + kPaperCalls * result.stats.modeled_phase_seconds(
                                               Phase::Computation, m);
      std::printf(" %9.3fms", 1e3 * baseline[i]);
    }
    std::printf("\n");
    std::printf("baseline/best (total)         ");
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
      std::printf(" %10.1fx", baseline[i] / best_ours[i]);
    }
    // Communication-only ratio: the paper's >= 10x gap at 256 nodes is a
    // communication gap (local kernels are identical); at simulation
    // scale computation still masks part of it in the total.
    std::printf("\nbaseline/best (comm only)     ");
    for (std::size_t i = 0; i < node_counts.size(); ++i) {
      std::printf(" %10.1fx", baseline_comm[i] / best_ours_comm[i]);
    }
    std::printf("\n");
  }

  std::printf("\nPaper checks:\n"
              "  * every 1.5D/2.5D algorithm beats the 1D baseline by a "
              "growing factor (paper: >= 10x at scale);\n"
              "  * sparse-shifting wins the low-nnz/row matrices "
              "(amazon, uk-2002), dense-shifting + local fusion wins "
              "eukarya (111 nnz/row);\n"
              "  * eliding variants beat their unoptimized sequences "
              "(paper: 1.19x on uk-2002, 1.6x on eukarya at 256 "
              "nodes).\n");
  return finish_records(records, out_path);
}
