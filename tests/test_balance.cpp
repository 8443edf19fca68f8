/// Plan-time load balance (dist/plan.hpp): a skewed pattern plans its
/// blocks by a seeded order-keeping row/column assignment, callers see
/// their own order in every output, and a uniform pattern plans exactly
/// as if it were never measured.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/families.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "dist/shards.hpp"
#include "local/reference.hpp"
#include "runtime/fault.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

struct Config {
  AlgorithmKind kind;
  int p;
  int c;
};

const Config kFamilies[] = {
    {AlgorithmKind::DenseShift15D, 4, 2},
    {AlgorithmKind::SparseShift15D, 4, 2},
    {AlgorithmKind::DenseRepl25D, 8, 2},
    {AlgorithmKind::SparseRepl25D, 8, 2},
    {AlgorithmKind::Baseline1D, 4, 1},
};

/// R-MAT in natural vertex order: its hubs crowd the low indices, so
/// every family's natural blocks are skewed.
PaddedProblem skewed_problem(const Config& cfg, Index n = 2048,
                             Index r = 8) {
  Rng rng(31);
  const CooMatrix s = rmat(n, n, 8 * n, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  return pad_problem(cfg.kind, cfg.p, cfg.c, s, a, b);
}

PaddedProblem uniform_problem(const Config& cfg, Index n = 1024,
                              Index r = 8) {
  Rng rng(32);
  const CooMatrix s = erdos_renyi_fixed_row(n, n, 8, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  return pad_problem(cfg.kind, cfg.p, cfg.c, s, a, b);
}

Plan plan_with(const Config& cfg, const PaddedProblem& prob,
               detail::Balancing balancing) {
  return detail::make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols(),
                           {}, balancing);
}

bool same_bits(std::span<const Scalar> x, std::span<const Scalar> y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(Scalar)) == 0);
}

void expect_near(const DenseMatrix& got, const DenseMatrix& want,
                 const std::string& what) {
  EXPECT_LE(got.max_abs_diff(want),
            1e-9 * std::max<Scalar>(want.frobenius_norm(), 1.0))
      << what;
}

/// Every op a family runs, as (name, output) pairs of one plan: the three
/// kernels (SDDMM values as one column, in S's entry order) and FusedMM
/// in each supported orientation and elision.
std::vector<std::pair<std::string, DenseMatrix>> run_every_op(
    const Config& cfg, const Plan& plan, const PaddedProblem& prob,
    std::vector<std::uint64_t>* words = nullptr) {
  std::vector<std::pair<std::string, DenseMatrix>> out;
  const auto record = [&](const std::string& name, DenseMatrix m,
                          const WorldStats& stats) {
    out.emplace_back(name, std::move(m));
    if (words == nullptr) return;
    for (const Phase phase : {Phase::Replication, Phase::Propagation}) {
      words->push_back(stats.max_words(phase));
    }
  };
  for (const Mode mode : {Mode::SDDMM, Mode::SpMMA, Mode::SpMMB}) {
    if (!unsupported_reason(cfg.kind, mode).empty()) continue;
    auto result = plan.execute(mode, prob.s, prob.a, prob.b);
    const auto nnz = static_cast<Index>(result.sddmm_values.size());
    record(to_string(mode),
           mode == Mode::SDDMM ? DenseMatrix(nnz, 1, result.sddmm_values)
                               : std::move(result.dense),
           result.stats);
  }
  for (const auto orientation : {FusedOrientation::A, FusedOrientation::B}) {
    for (const auto elision : {Elision::None, Elision::ReplicationReuse,
                               Elision::LocalKernelFusion}) {
      if (!unsupported_reason(cfg.kind, orientation, elision).empty()) {
        continue;
      }
      auto result = plan.execute_fusedmm(orientation, elision, prob.s,
                                         prob.a, prob.b);
      record(to_string(orientation) + " " + to_string(elision),
             std::move(result.output), result.stats);
    }
  }
  return out;
}

/// The serial reference of an op named by run_every_op.
DenseMatrix reference(const std::string& name, const PaddedProblem& prob) {
  if (name == to_string(Mode::SDDMM)) {
    const CooMatrix want = reference_sddmm(prob.s, prob.a, prob.b);
    return DenseMatrix(want.nnz(), 1, want.values());
  }
  if (name == to_string(Mode::SpMMA)) return reference_spmm_a(prob.s, prob.b);
  if (name == to_string(Mode::SpMMB)) return reference_spmm_b(prob.s, prob.a);
  return name.starts_with(to_string(FusedOrientation::A) + " ")
             ? reference_fusedmm_a(prob.s, prob.a, prob.b)
             : reference_fusedmm_b(prob.s, prob.a, prob.b);
}

/// Each axis of a draw is a bijection that fills every block with the
/// same count, and inside a block the planned order is the caller's; an
/// axis with one block keeps the identity.
TEST(Balance, DrawKeepsEqualCountsAndOrderInsideBlocks) {
  Rng rng(5);
  const CooMatrix s = rmat(1024, 512, 8 * 1024, rng);
  const BlockMaps maps = draw_block_maps(s, {4, 1}, 11);
  EXPECT_TRUE(maps.cols.identity());
  ASSERT_EQ(maps.rows.to.size(), 1024u);
  const Index size = 1024 / 4;
  std::vector<Index> last(4, -1);
  for (Index i = 0; i < 1024; ++i) {
    const Index planned = maps.rows(i);
    ASSERT_GE(planned, 0);
    ASSERT_LT(planned, 1024);
    EXPECT_EQ(maps.rows.from[static_cast<std::size_t>(planned)], i);
    const auto block = static_cast<std::size_t>(planned / size);
    EXPECT_GT(planned, last[block]) << "row " << i;
    last[block] = planned;
  }
  // Every block filled its slots exactly, in order.
  for (std::size_t block = 0; block < last.size(); ++block) {
    EXPECT_EQ(last[block], static_cast<Index>(block + 1) * size - 1);
  }
  // Seeded: the same draw again, another seed draws another assignment.
  EXPECT_EQ(draw_block_maps(s, {4, 1}, 11).rows.to, maps.rows.to);
  EXPECT_NE(draw_block_maps(s, {4, 1}, 12).rows.to, maps.rows.to);
  // Maps drawn for another shape are rejected, not read out of range.
  EXPECT_THROW(block_imbalance(s.transposed(), {4, 1}, maps), Error);
  EXPECT_THROW(draw_block_maps(CooMatrix(0, 4), {2, 1}, 11), Error);
}

/// For every family and op on a skewed R-MAT input the plan balances,
/// its blocks come within 10% of even, and every output — SDDMM values
/// in S's entry order, dense outputs in the caller's row order — matches
/// the serial reference.
TEST(Balance, SkewedPlansBalanceAndMatchReferences) {
  for (const Config& cfg : kFamilies) {
    const auto prob = skewed_problem(cfg);
    const Plan natural = plan_with(cfg, prob, detail::Balancing::Off);
    const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                prob.a.cols());
    EXPECT_FALSE(natural.balanced());
    EXPECT_GT(natural.block_imbalance(), detail::kBalanceThreshold)
        << to_string(cfg.kind);
    ASSERT_TRUE(plan.balanced()) << to_string(cfg.kind);
    EXPECT_LE(plan.block_imbalance(), 1.1) << to_string(cfg.kind);
    for (const auto& [name, got] : run_every_op(cfg, plan, prob)) {
      expect_near(got, reference(name, prob),
                  to_string(cfg.kind) + " " + name);
    }
  }
}

/// The assignment is seeded and read only from the pattern and the
/// grid: two plans of one input give the same bits and the same words.
TEST(Balance, TwoPlansOfOneInputGiveTheSameBits) {
  for (const Config& cfg : kFamilies) {
    const auto prob = skewed_problem(cfg, 512);
    const Plan first = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                 prob.a.cols());
    const Plan second = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                  prob.a.cols());
    ASSERT_TRUE(first.balanced() && second.balanced());
    EXPECT_EQ(first.block_imbalance(), second.block_imbalance());
    std::vector<std::uint64_t> words_first, words_second;
    const auto once = run_every_op(cfg, first, prob, &words_first);
    const auto again = run_every_op(cfg, second, prob, &words_second);
    ASSERT_EQ(once.size(), again.size());
    for (std::size_t k = 0; k < once.size(); ++k) {
      EXPECT_TRUE(same_bits(once[k].second.data(), again[k].second.data()))
          << to_string(cfg.kind) << " " << once[k].first;
    }
    EXPECT_EQ(words_first, words_second) << to_string(cfg.kind);
  }
}

/// SDDMM values come back in the caller's entry order: entry k of a
/// balanced plan's output is entry k of the natural plan's, whatever
/// block the assignment moved it to.
TEST(Balance, SddmmValuesComeBackInEntryOrder) {
  for (const Config& cfg : kFamilies) {
    if (!unsupported_reason(cfg.kind, Mode::SDDMM).empty()) continue;
    const auto prob = skewed_problem(cfg, 512);
    const auto values = [&](detail::Balancing balancing) {
      return plan_with(cfg, prob, balancing)
          .execute(Mode::SDDMM, prob.s, prob.a, prob.b)
          .sddmm_values;
    };
    const auto natural = values(detail::Balancing::Off);
    const auto balanced = values(detail::Balancing::On);
    ASSERT_EQ(balanced.size(), static_cast<std::size_t>(prob.s.nnz()));
    for (std::size_t k = 0; k < natural.size(); ++k) {
      EXPECT_NEAR(balanced[k], natural[k],
                  1e-12 * std::max<Scalar>(std::abs(natural[k]), 1.0))
          << to_string(cfg.kind) << " entry " << k;
    }
  }
}

/// An Erdős–Rényi pattern is even already: its plans keep the caller's
/// order and are bit-identical, output and words, to plans with the
/// balancing forced off.
TEST(Balance, UniformPlansKeepTheCallerOrder) {
  for (const Config& cfg : kFamilies) {
    const auto prob = uniform_problem(cfg);
    const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                prob.a.cols());
    const Plan off = plan_with(cfg, prob, detail::Balancing::Off);
    EXPECT_FALSE(plan.balanced()) << to_string(cfg.kind);
    EXPECT_LE(plan.block_imbalance(), detail::kBalanceThreshold);
    EXPECT_EQ(plan.block_imbalance(), off.block_imbalance());
    std::vector<std::uint64_t> words_auto, words_off;
    const auto got = run_every_op(cfg, plan, prob, &words_auto);
    const auto want = run_every_op(cfg, off, prob, &words_off);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_TRUE(same_bits(got[k].second.data(), want[k].second.data()))
          << to_string(cfg.kind) << " " << got[k].first;
    }
    EXPECT_EQ(words_auto, words_off) << to_string(cfg.kind);
  }
}

/// A balanced plan that loses a rank for good re-plans the padded
/// problem onto the smaller grid — balanced by the same rule there —
/// and still answers in the caller's order.
TEST(Balance, DegradedBalancedPlanMatchesReference) {
  const FaultPlan faults = parse_fault_plan("seed=9,crash=1@any:0");
  AlgorithmOptions options;
  options.faults = &faults;
  options.max_recoveries = 0;
  options.degrade = true;
  for (const Config& cfg : {kFamilies[0], kFamilies[3]}) {
    const auto prob = skewed_problem(cfg, 512);
    const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                prob.a.cols(), options);
    ASSERT_TRUE(plan.balanced());
    const auto result = plan.execute(Mode::SpMMA, prob.s, prob.a, prob.b);
    EXPECT_TRUE(result.stats.degraded()) << to_string(cfg.kind);
    expect_near(result.dense, reference_spmm_a(prob.s, prob.b),
                to_string(cfg.kind));
  }
}

} // namespace
} // namespace dsk
