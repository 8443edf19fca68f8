/// Ablation: random-permutation load balancing (paper Section VI: "To
/// load balance among the processors, we randomly permute the rows and
/// columns of sparse matrices that we read in"). Sparsity-agnostic
/// algorithms partition by position, so a power-law matrix with
/// clustered hubs (R-MAT's natural vertex order) makes some blocks far
/// heavier than others; because the runtime reports the MAX over ranks
/// (the straggler), imbalance directly inflates communication and
/// computation time for the algorithms that move nnz-proportional data.
///
/// This bench measures the sparse-shifting FusedMM with and without the
/// random permutation and reports block-imbalance and modeled-time
/// ratios — the quantitative case for the paper's design choice.

#include "bench_common.hpp"
#include "sparse/permute.hpp"

using namespace dsk;
using namespace dsk::bench;

namespace {

/// Max/mean nonzero count over the p column blocks of the 1.5D
/// sparse-shifting distribution.
double block_imbalance(const CooMatrix& s, int p) {
  const Index block = s.cols() / p;
  std::vector<Index> counts(static_cast<std::size_t>(p), 0);
  for (const Index j : s.col_idx()) {
    counts[static_cast<std::size_t>(j / block)]++;
  }
  Index max_count = 0;
  for (const Index c : counts) max_count = std::max(max_count, c);
  return static_cast<double>(max_count) * p /
         static_cast<double>(s.nnz());
}

} // namespace

int main() {
  print_header("Ablation: random permutation load balancing "
               "(paper Section VI)");

  const Index n = 16384 * env_scale();
  const Index d = 8;
  const Index r = 32;
  const int p = 16, c = 4;

  Rng rng(777);
  // R-MAT in natural vertex order: hubs cluster in the low indices.
  const auto raw = rmat(n, n, n * d, rng);
  const auto permuted = random_permute(raw, rng);

  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  std::printf("R-MAT n = %lld, nnz = %lld, p = %d, c = %d\n\n",
              static_cast<long long>(n), static_cast<long long>(raw.nnz()),
              p, c);
  std::printf("%-22s %18s %18s\n", "", "natural order", "random permuted");
  std::printf("%-22s %18.2f %18.2f\n", "block nnz max/mean",
              block_imbalance(raw, p), block_imbalance(permuted.matrix, p));

  const auto m = machine();
  const auto run = [&](const CooMatrix& s) {
    return make_plan(AlgorithmKind::SparseShift15D, p, c, s, r)
        .execute_fusedmm(FusedOrientation::A, Elision::ReplicationReuse, s,
                         a, b);
  };
  const auto run_raw = run(raw);
  const auto run_perm = run(permuted.matrix);

  const double comm_raw = run_raw.stats.modeled_comm_seconds(m);
  const double comm_perm = run_perm.stats.modeled_comm_seconds(m);
  const double comp_raw =
      run_raw.stats.modeled_phase_seconds(Phase::Computation, m);
  const double comp_perm =
      run_perm.stats.modeled_phase_seconds(Phase::Computation, m);
  std::printf("%-22s %16.4fms %16.4fms\n", "comm time (straggler)",
              1e3 * comm_raw, 1e3 * comm_perm);
  std::printf("%-22s %16.4fms %16.4fms\n", "comp time (straggler)",
              1e3 * comp_raw, 1e3 * comp_perm);
  std::printf("\npermutation speedup: comm %.2fx, comp %.2fx\n",
              comm_raw / comm_perm, comp_raw / comp_perm);
  std::printf("Paper check: the random permutation flattens the "
              "straggler, which is why every experiment applies it "
              "before distribution.\n");
  return 0;
}
