/// Table III reproduction: for every FusedMM algorithm + eliding
/// strategy, compare the communication words MEASURED by the simulated
/// runtime against the paper's closed-form words-communicated column.
/// Measured/model ratios of 1.00 validate both the algorithms and the
/// analysis. (Sparse propagation carries one header word per message;
/// the residual ratio above 1.00 is exactly those headers.)

#include "bench_common.hpp"
#include "model/cost_model.hpp"

using namespace dsk;
using namespace dsk::bench;

int main() {
  print_header("Table III: words communicated per FusedMM, "
               "measured vs closed form");

  const Index n = 4096 * env_scale();
  const Index r = 64;
  const Index d = 8; // nnz per row -> phi = 1/8
  const auto w = make_er_workload(n, d, r, /*seed=*/1);

  std::printf("n = %lld, nnz = %lld, r = %lld, phi = %.3f\n",
              static_cast<long long>(n),
              static_cast<long long>(w.s.nnz()),
              static_cast<long long>(r), phi_ratio(w.s, r));
  std::printf("%-34s %3s %3s %14s %14s %7s\n", "algorithm", "p", "c",
              "measured", "model", "ratio");

  struct Case {
    Variant variant;
    int p;
    int c;
  };
  std::vector<Case> cases;
  for (const auto& v : paper_variants()) {
    const bool is25d = v.kind == AlgorithmKind::DenseRepl25D ||
                       v.kind == AlgorithmKind::SparseRepl25D;
    if (is25d) {
      cases.push_back({v, 16, 4});
      cases.push_back({v, 32, 2});
    } else {
      cases.push_back({v, 16, 4});
      cases.push_back({v, 32, 8});
    }
  }

  for (const auto& cs : cases) {
    const auto result =
        make_plan(cs.variant.kind, cs.p, cs.c, w.s, w.a.cols())
            .execute_fusedmm(FusedOrientation::A, cs.variant.elision, w.s,
                             w.a, w.b);
    const auto measured = result.stats.max_words(Phase::Replication) +
                          result.stats.max_words(Phase::Propagation);
    const auto model = fusedmm_cost(cs.variant.kind, cs.variant.elision,
                                    w.cost_inputs(cs.p, cs.c));
    std::printf("%-34s %3d %3d %14llu %14.0f %7.3f\n", cs.variant.name,
                cs.p, cs.c, static_cast<unsigned long long>(measured),
                model.total_words(),
                static_cast<double>(measured) / model.total_words());
  }

  std::printf("\nPaper check: every ratio should be 1.00 (+epsilon for "
              "sparse message headers); the runtime moves exactly the "
              "words Table III counts.\n");
  return 0;
}
