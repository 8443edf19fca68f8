/// Ablation: load balancing by row/column reassignment (paper Section
/// VI: "To load balance among the processors, we randomly permute the
/// rows and columns of sparse matrices that we read in"). Sparsity-
/// agnostic algorithms partition by position, so a power-law matrix with
/// clustered hubs (R-MAT's natural vertex order) makes some blocks far
/// heavier than others; because the runtime reports the MAX over ranks
/// (the straggler), imbalance directly inflates communication and
/// computation time for the algorithms that move nnz-proportional data.
///
/// make_plan balances such a pattern itself: it assigns rows and
/// columns to the family's blocks at random in equal counts, keeping
/// their order inside each block (dist/plan.hpp). This bench plans the
/// sparse-shifting FusedMM once with balancing forced off (natural
/// order) and once forced on, and reports the block-imbalance and
/// modeled-time ratios — the quantitative case for the paper's design
/// choice.

#include "bench_common.hpp"
#include "dist/families.hpp"

using namespace dsk;
using namespace dsk::bench;

int main() {
  print_header("Ablation: load balancing by order-keeping block "
               "reassignment (paper Section VI)");

  const Index n = 16384 * env_scale();
  const Index d = 8;
  const Index r = 32;
  const int p = 16, c = 4;

  Rng rng(777);
  // R-MAT in natural vertex order: hubs cluster in the low indices.
  const auto s = rmat(n, n, n * d, rng);

  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  std::printf("R-MAT n = %lld, nnz = %lld, p = %d, c = %d\n\n",
              static_cast<long long>(n), static_cast<long long>(s.nnz()),
              p, c);
  const auto plan_with = [&](detail::Balancing balancing) {
    return detail::make_plan(AlgorithmKind::SparseShift15D, p, c, s, r, {},
                             balancing);
  };
  const Plan natural = plan_with(detail::Balancing::Off);
  const Plan balanced = plan_with(detail::Balancing::On);
  std::printf("%-22s %18s %18s\n", "", "natural order", "balanced");
  std::printf("%-22s %18.2f %18.2f\n", "block nnz max/mean",
              natural.block_imbalance(), balanced.block_imbalance());

  const auto m = machine();
  const auto run = [&](const Plan& plan) {
    return plan.execute_fusedmm(FusedOrientation::A,
                                Elision::ReplicationReuse, s, a, b);
  };
  const auto run_raw = run(natural);
  const auto run_bal = run(balanced);

  const double comm_raw = run_raw.stats.modeled_comm_seconds(m);
  const double comm_bal = run_bal.stats.modeled_comm_seconds(m);
  const double comp_raw =
      run_raw.stats.modeled_phase_seconds(Phase::Computation, m);
  const double comp_bal =
      run_bal.stats.modeled_phase_seconds(Phase::Computation, m);
  std::printf("%-22s %16.4fms %16.4fms\n", "comm time (straggler)",
              1e3 * comm_raw, 1e3 * comm_bal);
  std::printf("%-22s %16.4fms %16.4fms\n", "comp time (straggler)",
              1e3 * comp_raw, 1e3 * comp_bal);
  std::printf("\nbalancing speedup: comm %.2fx, comp %.2fx\n",
              comm_raw / comm_bal, comp_raw / comp_bal);
  std::printf("Paper check: balancing flattens the straggler, which is "
              "why every plan of a skewed pattern applies it before "
              "distribution.\n");
  return 0;
}
