/// The central property test of the reproduction: on load-balanced
/// inputs, the communication measured by the runtime equals the paper's
/// Table III closed forms EXACTLY (replication and propagation words
/// separately, per FusedMM call), for every algorithm family and eliding
/// strategy. Sparse shift messages carry one extra header word per
/// message (the wire count prefix), which the expectations account for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "dist/algorithm.hpp"
#include "dist/grid.hpp"
#include "model/cost_model.hpp"
#include "model/optimal_c.hpp"
#include "model/predictor.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

/// Matrix with exactly per_cell nonzeros in every (row_blocks x
/// col_blocks) grid cell — perfectly balanced for the corresponding
/// distribution, so max-over-ranks equals the analytic per-rank cost.
CooMatrix balanced_cells(Index m, Index n, Index row_blocks,
                         Index col_blocks, Index per_cell, Rng& rng) {
  const Index cell_m = m / row_blocks;
  const Index cell_n = n / col_blocks;
  CooMatrix out(m, n);
  std::set<std::pair<Index, Index>> seen;
  for (Index rb = 0; rb < row_blocks; ++rb) {
    for (Index cb = 0; cb < col_blocks; ++cb) {
      seen.clear();
      while (static_cast<Index>(seen.size()) < per_cell) {
        const Index i = rb * cell_m + rng.next_index(0, cell_m);
        const Index j = cb * cell_n + rng.next_index(0, cell_n);
        if (seen.insert({i, j}).second) {
          out.push_back(i, j, rng.next_in(-1.0, 1.0));
        }
      }
    }
  }
  out.sort_and_combine();
  return out;
}

struct Measured {
  std::uint64_t replication;
  std::uint64_t propagation;
};

Measured run_measured(AlgorithmKind kind, Elision elision, int p, int c,
                      const CooMatrix& s, const DenseMatrix& a,
                      const DenseMatrix& b) {
  auto algo = make_algorithm(kind, p, c);
  // Measure in each engine's native orientation: the model describes the
  // native data movement (replicate the m-side, shift the n-side); the
  // other orientation is the same engine on the transposed problem.
  const auto orientation = elision == Elision::LocalKernelFusion
                               ? FusedOrientation::A
                               : FusedOrientation::B;
  const auto result =
      algo->run_fusedmm(orientation, elision, s, a, b, 1);
  return {result.stats.max_words(Phase::Replication),
          result.stats.max_words(Phase::Propagation)};
}

TEST(CostModel, DenseShift15DExact) {
  const Index m = 48, n = 96, r = 8;
  Rng rng(42);
  // Any sparsity works: dense-shift communication is sparsity-independent.
  const auto s = erdos_renyi_fixed_row(m, n, 5, rng);
  DenseMatrix a(m, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  for (const auto& [p, c] : std::vector<std::pair<int, int>>{
           {4, 1}, {4, 2}, {8, 2}, {8, 4}, {16, 4}}) {
    for (const auto elision :
         {Elision::None, Elision::ReplicationReuse,
          Elision::LocalKernelFusion}) {
      const CostInputs in{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(r),
                          static_cast<double>(s.nnz()), p, c};
      const auto expect =
          fusedmm_cost(AlgorithmKind::DenseShift15D, elision, in);
      const auto got = run_measured(AlgorithmKind::DenseShift15D, elision,
                                    p, c, s, a, b);
      EXPECT_EQ(got.replication,
                static_cast<std::uint64_t>(expect.replication_words))
          << "p=" << p << " c=" << c << " " << to_string(elision);
      EXPECT_EQ(got.propagation,
                static_cast<std::uint64_t>(expect.propagation_words))
          << "p=" << p << " c=" << c << " " << to_string(elision);
    }
  }
}

TEST(CostModel, SparseShift15DExactWithHeaders) {
  const Index m = 48, n = 96;
  Rng rng(43);
  // Exactly 6 nonzeros per COLUMN: every n/p column block is perfectly
  // balanced for every p under test.
  auto st = erdos_renyi_fixed_row(n, m, 6, rng);
  auto s = st.transposed();
  s.sort_and_combine();
  DenseMatrix a(m, 16), b(n, 16);
  a.fill_random(rng);
  b.fill_random(rng);

  for (const auto& [p, c] : std::vector<std::pair<int, int>>{
           {4, 1}, {4, 2}, {8, 2}, {16, 4}}) {
    const Index r = 16;
    for (const auto elision : {Elision::None, Elision::ReplicationReuse}) {
      const CostInputs in{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(r),
                          static_cast<double>(s.nnz()), p, c};
      const auto expect =
          fusedmm_cost(AlgorithmKind::SparseShift15D, elision, in);
      const auto got = run_measured(AlgorithmKind::SparseShift15D, elision,
                                    p, c, s, a, b);
      // Each sparse shift message carries a 1-word count header.
      const int layers = p / c;
      const std::uint64_t headers = layers > 1 ? 2 * layers : 0;
      EXPECT_EQ(got.replication,
                static_cast<std::uint64_t>(expect.replication_words))
          << "p=" << p << " c=" << c << " " << to_string(elision);
      EXPECT_EQ(got.propagation,
                static_cast<std::uint64_t>(expect.propagation_words) +
                    headers)
          << "p=" << p << " c=" << c << " " << to_string(elision);
    }
  }
}

TEST(CostModel, DenseRepl25DExactWithHeaders) {
  const Index m = 96, n = 96, r = 16;
  Rng rng(44);
  DenseMatrix a(m, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  for (const auto& [p, c] :
       std::vector<std::pair<int, int>>{{4, 1}, {8, 2}, {16, 4}, {16, 1}}) {
    const Grid25D grid(p, c);
    auto s = balanced_cells(m, n, grid.q(),
                            static_cast<Index>(grid.q()) * c, 5, rng);
    for (const auto elision : {Elision::None, Elision::ReplicationReuse}) {
      const CostInputs in{static_cast<double>(m), static_cast<double>(n),
                          static_cast<double>(r),
                          static_cast<double>(s.nnz()), p, c};
      const auto expect =
          fusedmm_cost(AlgorithmKind::DenseRepl25D, elision, in);
      const auto got = run_measured(AlgorithmKind::DenseRepl25D, elision, p,
                                    c, s, a, b);
      const std::uint64_t headers =
          grid.q() > 1 ? 2 * static_cast<std::uint64_t>(grid.q()) : 0;
      EXPECT_EQ(got.replication,
                static_cast<std::uint64_t>(expect.replication_words))
          << "p=" << p << " c=" << c << " " << to_string(elision);
      EXPECT_EQ(got.propagation,
                static_cast<std::uint64_t>(expect.propagation_words) +
                    headers)
          << "p=" << p << " c=" << c << " " << to_string(elision);
    }
  }
}

TEST(CostModel, SparseRepl25DExact) {
  const Index m = 96, n = 96, r = 48;
  Rng rng(45);
  DenseMatrix a(m, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);

  for (const auto& [p, c] :
       std::vector<std::pair<int, int>>{{4, 1}, {8, 2}, {16, 4}, {12, 3}}) {
    const Grid25D grid(p, c);
    // Block nnz divisible by c so value chunks divide the ring evenly.
    const Index per_cell = 12;
    auto s = balanced_cells(m, n, grid.q(), grid.q(), per_cell, rng);
    const CostInputs in{static_cast<double>(m), static_cast<double>(n),
                        static_cast<double>(r),
                        static_cast<double>(s.nnz()), p, c};
    const auto expect =
        fusedmm_cost(AlgorithmKind::SparseRepl25D, Elision::None, in);
    const auto got = run_measured(AlgorithmKind::SparseRepl25D,
                                  Elision::None, p, c, s, a, b);
    EXPECT_EQ(got.replication,
              static_cast<std::uint64_t>(expect.replication_words))
        << "p=" << p << " c=" << c;
    EXPECT_EQ(got.propagation,
              static_cast<std::uint64_t>(expect.propagation_words))
        << "p=" << p << " c=" << c;
  }
}

TEST(CostModel, ExpectedDistinctSanity) {
  EXPECT_DOUBLE_EQ(expected_distinct(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(expected_distinct(10, 0), 0.0);
  EXPECT_NEAR(expected_distinct(1, 100), 1.0, 1e-12);
  // Monotone in draws, bounded by both draws and bins.
  EXPECT_LT(expected_distinct(10, 100), expected_distinct(20, 100));
  EXPECT_LE(expected_distinct(50, 100), 50.0);
  EXPECT_NEAR(expected_distinct(1e6, 100), 100.0, 1e-6);
}

TEST(CostModel, SparseReplicationTermsBelowDenseOnSparseInputs) {
  // nnz/p far below the working-block row count: the expected support is
  // a fraction of the block, so shipping support*(r+1) words beats the
  // dense (c-1)*m*r/p fiber term and Auto takes it. Propagation is
  // untouched by the knob.
  const CostInputs in{1 << 16, 1 << 16, 64, 2.0 * (1 << 16), 16, 4};
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D}) {
    const auto dense = fusedmm_cost(kind, Elision::None, in);
    const auto autod =
        fusedmm_cost(kind, Elision::None, in, ReplicationMode::Auto);
    EXPECT_LT(autod.replication_words, dense.replication_words)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(
        autod.replication_words,
        expected_sparse_replication_words(kind, Elision::None, in))
        << to_string(kind);
    EXPECT_DOUBLE_EQ(autod.propagation_words, dense.propagation_words)
        << to_string(kind);
    // Replication reuse halves the fiber-operation count in both modes.
    const auto reuse = fusedmm_cost(kind, Elision::ReplicationReuse, in,
                                    ReplicationMode::Auto);
    EXPECT_DOUBLE_EQ(reuse.replication_words,
                     autod.replication_words / 2)
        << to_string(kind);
  }
}

TEST(CostModel, AutoFallsBackToDenseOnDenseSupports) {
  // nnz so large every block row is expected to be supported: the sparse
  // plan pays its count and index header on top of every row and loses;
  // Auto must take the dense term.
  const CostInputs in{1 << 12, 1 << 12, 64, 600.0 * (1 << 12), 16, 4};
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D}) {
    const auto dense = fusedmm_cost(kind, Elision::None, in);
    const auto autod =
        fusedmm_cost(kind, Elision::None, in, ReplicationMode::Auto);
    EXPECT_GT(expected_sparse_replication_words(kind, Elision::None, in),
              dense.replication_words)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(autod.replication_words, dense.replication_words)
        << to_string(kind);
  }
}

TEST(CostModel, SparsePropagationTermsBelowDenseOnSparseInputs) {
  // Sparse instance: the circulating blocks' expected column supports
  // are small fractions of the block rows, so Auto's compressed hops
  // beat the dense shift terms on every family with dense circulating
  // payloads; replication is untouched by the knob.
  const CostInputs in{1 << 16, 1 << 16, 64, 2.0 * (1 << 16), 16, 4};
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::DenseRepl25D,
        AlgorithmKind::SparseRepl25D}) {
    const auto dense = fusedmm_cost(kind, Elision::None, in);
    const auto autod =
        fusedmm_cost(kind, Elision::None, in, ReplicationMode::Dense,
                     PropagationMode::Auto);
    EXPECT_LT(autod.propagation_words, dense.propagation_words)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(autod.replication_words, dense.replication_words)
        << to_string(kind);
    EXPECT_DOUBLE_EQ(
        autod.propagation_words,
        expected_sparse_propagation_words(kind, Elision::None, in))
        << to_string(kind);
  }
  // Families whose shifted payloads are already sparsity-sized are
  // propagation-mode-independent.
  for (const auto kind :
       {AlgorithmKind::SparseShift15D, AlgorithmKind::Baseline1D}) {
    const CostInputs one_c{1 << 16, 1 << 16, 64, 2.0 * (1 << 16), 16,
                           kind == AlgorithmKind::Baseline1D ? 1 : 4};
    EXPECT_DOUBLE_EQ(
        fusedmm_cost(kind, Elision::None, one_c, ReplicationMode::Dense,
                     PropagationMode::Auto)
            .propagation_words,
        fusedmm_cost(kind, Elision::None, one_c).propagation_words)
        << to_string(kind);
  }
  // Local kernel fusion runs one shift loop instead of two, in the
  // sparse expectation exactly as in the dense closed form.
  EXPECT_DOUBLE_EQ(
      expected_sparse_propagation_words(AlgorithmKind::DenseShift15D,
                                        Elision::LocalKernelFusion, in),
      expected_sparse_propagation_words(AlgorithmKind::DenseShift15D,
                                        Elision::None, in) /
          2);
}

TEST(CostModel, AutoPropagationFallsBackToDenseHopByHop) {
  // Nearly every block row expected in support: each non-terminal hop's
  // sparse message pays its count and index header on top of every row
  // and loses to the dense block, so Auto (the per-hop minimum) ships
  // those hops dense. Only
  // the homeward hop of each read-only ring trip, which carries
  // nothing, is saved: exactly one dense block per trip, two trips per
  // FusedMM pair. Both families' circulating blocks hold 16384 words
  // here (n/p x r for 1.5D, n/(qc) x r/q with q = 2 for 2.5D).
  const CostInputs in{1 << 12, 1 << 12, 64, 600.0 * (1 << 12), 16, 4};
  const double block_words = 16384;
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::DenseRepl25D}) {
    const auto dense = fusedmm_cost(kind, Elision::None, in);
    const auto autod =
        fusedmm_cost(kind, Elision::None, in, ReplicationMode::Dense,
                     PropagationMode::Auto);
    EXPECT_DOUBLE_EQ(dense.propagation_words - autod.propagation_words,
                     2 * block_words)
        << to_string(kind);
  }
}

TEST(CostModel, ReplicationModeIsANoOpForSparseSizedFamilies) {
  // 2.5D sparse replication moves value vectors, the baseline moves
  // nothing in the replication phase: the mode cannot change either.
  const CostInputs repl{1 << 16, 1 << 16, 64, 8.0 * (1 << 16), 16, 4};
  const CostInputs base{1 << 16, 1 << 16, 64, 8.0 * (1 << 16), 16, 1};
  for (const auto mode : {ReplicationMode::Dense, ReplicationMode::Auto}) {
    EXPECT_DOUBLE_EQ(
        fusedmm_cost(AlgorithmKind::SparseRepl25D, Elision::None, repl,
                     mode)
            .replication_words,
        fusedmm_cost(AlgorithmKind::SparseRepl25D, Elision::None, repl)
            .replication_words);
    EXPECT_DOUBLE_EQ(
        fusedmm_cost(AlgorithmKind::Baseline1D, Elision::None, base, mode)
            .replication_words,
        fusedmm_cost(AlgorithmKind::Baseline1D, Elision::None, base)
            .replication_words);
  }
}

TEST(CostModel, KernelIsHalfOfUnfusedPair) {
  const CostInputs in{1 << 16, 1 << 16, 128, 1 << 21, 16, 4};
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D}) {
    const auto pair = fusedmm_cost(kind, Elision::None, in);
    const auto single = kernel_cost(kind, in);
    EXPECT_DOUBLE_EQ(single.total_words(), pair.total_words() / 2)
        << to_string(kind);
  }
}

TEST(OptimalC, ClosedFormsMatchTableIV) {
  const int p = 256;
  EXPECT_DOUBLE_EQ(closed_form_optimal_c(AlgorithmKind::DenseShift15D,
                                         Elision::None, p, 0.125),
                   16.0);
  EXPECT_NEAR(closed_form_optimal_c(AlgorithmKind::DenseShift15D,
                                    Elision::ReplicationReuse, p, 0.125),
              std::sqrt(512.0), 1e-12);
  EXPECT_NEAR(closed_form_optimal_c(AlgorithmKind::DenseShift15D,
                                    Elision::LocalKernelFusion, p, 0.125),
              std::sqrt(128.0), 1e-12);
  EXPECT_NEAR(closed_form_optimal_c(AlgorithmKind::SparseShift15D,
                                    Elision::ReplicationReuse, p, 0.125),
              std::sqrt(6.0 * 256 * 0.125), 1e-12);
}

TEST(OptimalC, ElisionOrderingHolds) {
  // Paper Figure 7: c*(replication reuse) >= c*(no elision) >= c*(local
  // kernel fusion), both in closed form and in the discrete search.
  for (const int p : {16, 64, 256}) {
    const double reuse = closed_form_optimal_c(
        AlgorithmKind::DenseShift15D, Elision::ReplicationReuse, p, 0.125);
    const double none = closed_form_optimal_c(AlgorithmKind::DenseShift15D,
                                              Elision::None, p, 0.125);
    const double fusion = closed_form_optimal_c(
        AlgorithmKind::DenseShift15D, Elision::LocalKernelFusion, p, 0.125);
    EXPECT_GE(reuse, none);
    EXPECT_GE(none, fusion);

    const CostInputs in{1 << 16, 1 << 16, 256,
                        32.0 * (1 << 16), p, 1};
    const auto best_reuse = best_replication_factor(
        AlgorithmKind::DenseShift15D, Elision::ReplicationReuse, in);
    const auto best_none = best_replication_factor(
        AlgorithmKind::DenseShift15D, Elision::None, in);
    const auto best_fusion = best_replication_factor(
        AlgorithmKind::DenseShift15D, Elision::LocalKernelFusion, in);
    EXPECT_GE(best_reuse.c, best_none.c) << "p=" << p;
    EXPECT_GE(best_none.c, best_fusion.c) << "p=" << p;
  }
}

TEST(OptimalC, AdmissibleFactorsRespectGrids) {
  const auto f15 =
      admissible_replication_factors(AlgorithmKind::DenseShift15D, 12);
  EXPECT_EQ(f15, (std::vector<int>{1, 2, 3, 4, 6, 12}));
  const auto f25 =
      admissible_replication_factors(AlgorithmKind::DenseRepl25D, 16);
  EXPECT_EQ(f25, (std::vector<int>{1, 4, 16}));
  const auto capped =
      admissible_replication_factors(AlgorithmKind::DenseShift15D, 16, 8);
  EXPECT_EQ(capped, (std::vector<int>{1, 2, 4, 8}));
}

TEST(CostModel, ElisionSavesAsymptoticallyThirtyPercent) {
  // Paper Section V-A: the ratio of elided to unelided communication at
  // optimal c tends to 1/sqrt(2) ~ 0.707 as p grows.
  const double n = 1 << 22, r = 256, nnz = 32.0 * n;
  for (const int p : {1024, 4096, 16384}) {
    const CostInputs in{n, n, r, nnz, p, 1};
    const auto none = best_replication_factor(AlgorithmKind::DenseShift15D,
                                              Elision::None, in);
    const auto reuse = best_replication_factor(
        AlgorithmKind::DenseShift15D, Elision::ReplicationReuse, in);
    const auto fusion = best_replication_factor(
        AlgorithmKind::DenseShift15D, Elision::LocalKernelFusion, in);
    // c is restricted to divisors of p, so allow discretization slack
    // around the continuous-c limit 1/sqrt(2) ~ 0.707.
    const double ratio_reuse =
        reuse.cost.total_words() / none.cost.total_words();
    const double ratio_fusion =
        fusion.cost.total_words() / none.cost.total_words();
    EXPECT_NEAR(ratio_reuse, 1.0 / std::sqrt(2.0), 0.06) << "p=" << p;
    EXPECT_NEAR(ratio_fusion, 1.0 / std::sqrt(2.0), 0.06) << "p=" << p;
  }
}

TEST(Predictor, PhiGovernsTheWinner) {
  // Paper Figure 6: sparse shifting wins at low phi, dense shifting with
  // local kernel fusion wins at high phi.
  const double n = 1 << 22;
  const int p = 32;
  // The paper caps the replication factor at 8 for memory (Section VI-C);
  // without the cap the degenerate c=p configuration of the 2.5D sparse
  // replicating algorithm (S fully replicated, zero shifts) wins on
  // communication alone.
  const int c_max = 8;
  const CostInputs sparse_case{n, n, 448, 4.0 * n, p, 1};  // phi ~ 0.009
  const CostInputs dense_case{n, n, 64, 150.0 * n, p, 1};  // phi ~ 2.3
  EXPECT_EQ(predict_best(sparse_case, c_max).kind,
            AlgorithmKind::SparseShift15D);
  EXPECT_EQ(predict_best(dense_case, c_max).kind,
            AlgorithmKind::DenseShift15D);
  EXPECT_EQ(predict_best(dense_case, c_max).elision,
            Elision::LocalKernelFusion);
}

TEST(Predictor, RanksEveryContender) {
  const CostInputs in{1 << 16, 1 << 16, 128, 32.0 * (1 << 16), 16, 1};
  const auto ranking = rank_algorithms(in);
  EXPECT_EQ(ranking.size(), default_contenders().size());
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i - 1].cost.total_words(),
              ranking[i].cost.total_words());
  }
}

TEST(ScheduleBounds, OrderedAndConsistentWithTableIII) {
  const MachineModel m = MachineModel::cori_knl();
  const CostInputs in{1 << 14, 1 << 14, 64, 8.0 * (1 << 14), 16, 4};
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const auto bounds =
        schedule_bounds(kind, Elision::None, in, m);
    // More overlap can only help: the double-buffered bound hides
    // propagation behind compute, so bsp >= db always
    // (repl + max(prop, comp) <= repl + prop + comp termwise).
    EXPECT_GT(bounds.bulk_synchronous, 0.0) << to_string(kind);
    EXPECT_LE(bounds.double_buffered, bounds.bulk_synchronous)
        << to_string(kind);
    // Consistency with the Table III decomposition: the bulk-synchronous
    // bound is exactly the sum of the modeled phase terms.
    const auto cost = fusedmm_cost(kind, Elision::None, in);
    const double flops = (4.0 * in.r + 1.0) * in.nnz / in.p;
    const double expected = m.beta_seconds_per_word * cost.total_words() +
                            m.alpha_seconds_per_message * cost.messages +
                            m.gamma_seconds_per_flop * flops;
    EXPECT_NEAR(bounds.bulk_synchronous, expected,
                1e-12 * std::max(1.0, expected))
        << to_string(kind);
  }
}

TEST(Predictor, SkipsFamiliesWithNoValidGrid) {
  // p = 2: no valid 2.5D grid with c > ... (2/1=2 not square, 2/2=1 is
  // square with c=2). Ensure ranking still works and 1.5D families are
  // present.
  const CostInputs in{1 << 12, 1 << 12, 64, 8.0 * (1 << 12), 2, 1};
  const auto ranking = rank_algorithms(in);
  EXPECT_GE(ranking.size(), 2u);
}

} // namespace
} // namespace dsk
