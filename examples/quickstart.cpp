/// Quickstart: run one distributed FusedMM on a simulated 16-rank
/// machine, verify it against the serial reference, and print the
/// communication statistics that the paper's analysis predicts.
///
///   FusedMMA(S, A, B) = SpMMA(SDDMM(A, B, S), B)
///
/// Build & run:  ./quickstart

#include <cstdio>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "local/reference.hpp"
#include "model/cost_model.hpp"
#include "sparse/generate.hpp"

int main() {
  using namespace dsk;

  // A 4096 x 4096 Erdos-Renyi matrix with 8 nonzeros per row and
  // 64-wide embeddings: phi = nnz/(n r) = 1/8, the paper's weak-scaling
  // density.
  const Index n = 4096, r = 64, nnz_per_row = 8;
  Rng rng(2022);
  const auto s = erdos_renyi_fixed_row(n, n, nnz_per_row, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  std::printf("S: %lld x %lld, nnz = %lld (phi = %.3f), r = %lld\n",
              static_cast<long long>(n), static_cast<long long>(n),
              static_cast<long long>(s.nnz()), phi_ratio(s, r),
              static_cast<long long>(r));

  // 16 simulated ranks, replication factor 4 (the paper's optimal
  // c = sqrt(p) for the unoptimized sequence). The plan sets up the
  // sparsity pattern once; all three elisions execute on it.
  const int p = 16, c = 4;
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, p, c, s, r);

  std::printf("\n%-22s %14s %14s %10s\n", "elision", "repl words",
              "prop words", "max err");
  for (const auto elision :
       {Elision::None, Elision::ReplicationReuse,
        Elision::LocalKernelFusion}) {
    const auto result =
        plan.execute_fusedmm(FusedOrientation::A, elision, s, a, b);
    const auto expected = reference_fusedmm_a(s, a, b);
    const double err = result.output.max_abs_diff(expected) /
                       expected.frobenius_norm();
    std::printf("%-22s %14llu %14llu %10.2e\n",
                to_string(elision).c_str(),
                static_cast<unsigned long long>(
                    result.stats.max_words(Phase::Replication)),
                static_cast<unsigned long long>(
                    result.stats.max_words(Phase::Propagation)),
                err);
  }

  std::printf("\nTable III predictions for the same configuration:\n");
  const CostInputs in{static_cast<double>(n), static_cast<double>(n),
                      static_cast<double>(r),
                      static_cast<double>(s.nnz()), p, c};
  for (const auto elision :
       {Elision::None, Elision::ReplicationReuse,
        Elision::LocalKernelFusion}) {
    const auto cost =
        fusedmm_cost(AlgorithmKind::DenseShift15D, elision, in);
    std::printf("%-22s %14.0f %14.0f\n", to_string(elision).c_str(),
                cost.replication_words, cost.propagation_words);
  }
  std::printf("\nMeasured == modeled: the runtime counts exactly the "
              "words the paper's Table III analyzes.\n");
  return 0;
}
