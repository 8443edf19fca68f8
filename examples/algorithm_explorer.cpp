/// Algorithm explorer: given a problem shape, rank every algorithm
/// family + eliding strategy by the paper's Table III cost model at its
/// best admissible replication factor, then validate the top prediction
/// by actually running it on the simulated machine. This is the
/// decision procedure a user of the library would follow to pick a
/// kernel configuration — the content of the paper's Figure 6 reduced
/// to a single problem instance.
///
/// Build & run:  ./algorithm_explorer [nnz_per_row] [r]

#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "model/predictor.hpp"
#include "sparse/generate.hpp"

int main(int argc, char** argv) {
  using namespace dsk;

  const Index nnz_per_row = argc > 1 ? std::atoll(argv[1]) : 16;
  const Index r = argc > 2 ? std::atoll(argv[2]) : 128;
  const Index n = 1 << 14;
  const int p = 16;
  const int c_max = 8; // the paper's memory cap

  Rng rng(5);
  const auto s = erdos_renyi_fixed_row(n, n, nnz_per_row, rng);
  const double phi = phi_ratio(s, r);
  std::printf("problem: n = %lld, nnz/row = %lld, r = %lld, phi = %.4f, "
              "p = %d\n\n",
              static_cast<long long>(n),
              static_cast<long long>(nnz_per_row),
              static_cast<long long>(r), phi, p);

  const CostInputs in{static_cast<double>(n), static_cast<double>(n),
                      static_cast<double>(r), static_cast<double>(s.nnz()),
                      p, 1};
  const auto ranking = rank_algorithms(in, default_contenders(), c_max);

  std::printf("%-42s %4s %14s\n", "algorithm + elision (model ranking)",
              "c*", "total words");
  for (const auto& cand : ranking) {
    std::printf("%-28s %-13s %4d %14.0f\n", to_string(cand.kind).c_str(),
                to_string(cand.elision).c_str(), cand.c,
                cand.cost.total_words());
  }

  // Validate the winner on the simulated machine.
  const auto& best = ranking.front();
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  const auto run = make_plan(best.kind, p, best.c, s, r)
                       .execute_fusedmm(FusedOrientation::A, best.elision, s,
                                        a, b);
  const auto measured = run.stats.max_words(Phase::Replication) +
                        run.stats.max_words(Phase::Propagation);
  std::printf("\npredicted winner measured on the simulator: "
              "%llu words (model said %.0f)\n",
              static_cast<unsigned long long>(measured),
              best.cost.total_words());
  std::printf("Rule of thumb (paper Fig. 6): sparse-shift wins when phi "
              "is low, dense-shift + local fusion when phi is high.\n");
  return 0;
}
