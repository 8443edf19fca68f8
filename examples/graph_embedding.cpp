/// Graph embedding training loop (the workload class that motivates
/// FusedMM in the paper's introduction: "typical applications make a
/// call to an SDDMM operation and feed the sparse output to an SpMM
/// operation, repeating the pair several times with the same nonzero
/// pattern"). Each iteration computes similarity-weighted neighbor
/// aggregations with one FusedMM per side and nudges the embeddings
/// toward their neighbors — a simplified force-directed embedding.
///
/// Demonstrates why communication elision matters: the same pattern is
/// reused every iteration, so the per-iteration saving compounds.
///
/// Build & run:  ./graph_embedding

#include <cstdio>

#include "common/rng.hpp"
#include "dense/dense_ops.hpp"
#include "dist/plan.hpp"
#include "runtime/machine.hpp"
#include "sparse/generate.hpp"

int main() {
  using namespace dsk;

  const Index n = 4096, degree = 8, r = 32;
  const int p = 16, c = 4, iterations = 10;
  Rng rng(123);
  auto graph = rmat(n, n, n * degree, rng);
  for (auto& v : graph.values()) v = 1.0;

  DenseMatrix a(n, r), b(n, r);
  a.fill_gaussian(rng, 0.1);
  b.fill_gaussian(rng, 0.1);

  std::printf("embedding a graph with %lld nodes / %lld edges into "
              "%lld dims, %d iterations on %d simulated ranks\n\n",
              static_cast<long long>(n),
              static_cast<long long>(graph.nnz()),
              static_cast<long long>(r), iterations, p);

  const auto machine = MachineModel::cori_knl();
  for (const auto elision : {Elision::None, Elision::ReplicationReuse}) {
    // One plan serves all 2 x iterations calls: the graph never changes.
    const Plan plan =
        make_plan(AlgorithmKind::SparseShift15D, p, c, graph, r);
    DenseMatrix x = a, y = b;
    double comm_seconds = 0;
    const Scalar step = 0.05;
    for (int iter = 0; iter < iterations; ++iter) {
      // Attraction term: rows move toward similarity-weighted neighbor
      // aggregates, alternating sides.
      auto fx = plan.execute_fusedmm(FusedOrientation::A, elision, graph, x,
                                     y);
      comm_seconds += fx.stats.modeled_comm_seconds(machine);
      fx.output.scale(step / static_cast<Scalar>(degree));
      axpy(1.0, fx.output, x);

      auto fy = plan.execute_fusedmm(FusedOrientation::B, elision, graph, x,
                                     y);
      comm_seconds += fy.stats.modeled_comm_seconds(machine);
      fy.output.scale(step / static_cast<Scalar>(degree));
      axpy(1.0, fy.output, y);
    }
    std::printf("%-18s total modeled communication: %8.4f ms "
                "(embeddings |A| = %.3f, |B| = %.3f)\n",
                to_string(elision).c_str(), 1e3 * comm_seconds,
                x.frobenius_norm(), y.frobenius_norm());
  }
  std::printf("\nReplication reuse saves the second all-gather in every "
              "one of the %d x 2 FusedMM calls.\n",
              iterations);
  return 0;
}
