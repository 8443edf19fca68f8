/// Serving-layer tests: the immutable Plan / execute split, resident
/// worlds, the cross-call replication cache, request batching, and the
/// ALS server's degrade behavior, on uniform and on skewed patterns.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/serve_als.hpp"
#include "apps/serving.hpp"
#include "common/rng.hpp"
#include "dist/families.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "dist/replication_cache.hpp"
#include "local/reference.hpp"
#include "model/cost_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/world.hpp"
#include "sparse/generate.hpp"
#include "sparse/partition.hpp"

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

PaddedProblem small_problem(const Config& cfg, Index n = 48, Index d = 4,
                            Index r = 8, std::uint64_t seed = 77) {
  Rng rng(seed);
  CooMatrix s = erdos_renyi_fixed_row(n, n, d, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  return pad_problem(cfg.kind, cfg.p, cfg.c, s, a, b);
}

/// R-MAT in natural vertex order: its hubs crowd the low indices, so
/// every family's natural blocks are skewed and its plans balance.
PaddedProblem skewed_problem(const Config& cfg, Index n = 256, Index d = 8,
                             Index r = 8, std::uint64_t seed = 78) {
  Rng rng(seed);
  CooMatrix s = rmat(n, n, d * n, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  return pad_problem(cfg.kind, cfg.p, cfg.c, s, a, b);
}

/// Ratings of a rank-4 model plus noise on `pattern`'s entries.
CooMatrix ratings_on(const CooMatrix& pattern, Rng& rng) {
  const Index true_rank = 4;
  DenseMatrix taste(pattern.rows(), true_rank);
  DenseMatrix appeal(pattern.cols(), true_rank);
  taste.fill_gaussian(rng, 1.0);
  appeal.fill_gaussian(rng, 1.0);
  CooMatrix ratings(pattern.rows(), pattern.cols());
  ratings.reserve(pattern.nnz());
  for (Index k = 0; k < pattern.nnz(); ++k) {
    const auto e = pattern.entry(k);
    Scalar dot = 0;
    for (Index f = 0; f < true_rank; ++f) {
      dot += taste(e.row, f) * appeal(e.col, f);
    }
    ratings.push_back(e.row, e.col, dot + 0.05 * rng.next_gaussian());
  }
  ratings.sort_and_combine();
  return ratings;
}

CooMatrix synthetic_ratings(Index users, Index items, Index per_user,
                            std::uint64_t seed) {
  Rng rng(seed);
  const CooMatrix pattern =
      erdos_renyi_fixed_row(users, items, per_user, rng);
  return ratings_on(pattern, rng);
}

/// Ratings on an R-MAT pattern: hub users and hub items crowd the low
/// indices.
CooMatrix skewed_ratings(Index users, Index items, Index per_user,
                         std::uint64_t seed) {
  Rng rng(seed);
  const CooMatrix pattern = rmat(users, items, per_user * users, rng);
  return ratings_on(pattern, rng);
}

AlsServerConfig small_server_config(AlgorithmKind kind =
                                        AlgorithmKind::DenseShift15D) {
  AlsServerConfig config;
  config.train.kind = kind;
  config.train.p = 4;
  config.train.c = 2;
  config.train.rank = 8;
  config.train.cg_iterations = 4;
  config.train.sweeps = 2;
  config.batch_width = 32;
  return config;
}

// --- Plan / execute -----------------------------------------------------

/// The plan/execute guarantee: for a fixed wire codec, every point of the
/// {schedule} x {replication} x {propagation} option cube plans a
/// kernel with the same output bits, a second execute of a plan repeats
/// the first's bits, words and messages, and no execute rebuilds setup
/// state — across every family, under the default wire codec and a lossy
/// one, on a uniform pattern and on a skewed one whose plans balance.
TEST(Plan, ExecuteIsBitIdenticalAcrossOptionCube) {
  for (const Config& cfg : kFamilies) {
    // The 1D baseline only implements SpMMA.
    const Mode mode = cfg.kind == AlgorithmKind::Baseline1D ? Mode::SpMMA
                                                            : Mode::SpMMB;
    for (const bool skewed : {false, true}) {
      const auto prob = skewed ? skewed_problem(cfg) : small_problem(cfg);
      for (const WireCodec codec :
           {WireCodec{}, WireCodec{WirePrecision::BF16}}) {
        std::optional<DenseMatrix> first;
        for (const ShiftSchedule schedule : {ShiftSchedule::DoubleBuffered,
                                             ShiftSchedule::BulkSynchronous}) {
          for (const ReplicationMode replication :
               {ReplicationMode::Dense, ReplicationMode::Auto}) {
            for (const PropagationMode propagation :
                 {PropagationMode::Dense, PropagationMode::Auto}) {
              AlgorithmOptions options;
              options.schedule = schedule;
              options.replication = replication;
              options.propagation = propagation;
              options.codec = codec;
              const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                          prob.a.cols(), options);
              if (skewed) {
                EXPECT_TRUE(plan.balanced()) << to_string(cfg.kind);
              }
              const auto once = plan.execute(mode, prob.s, prob.a, prob.b);
              const auto twice = plan.execute(mode, prob.s, prob.a, prob.b);
              if (!first) first = once.dense;
              EXPECT_EQ(once.dense.max_abs_diff(*first), 0.0)
                  << to_string(cfg.kind);
              EXPECT_EQ(twice.dense.max_abs_diff(once.dense), 0.0)
                  << to_string(cfg.kind);
              for (const Phase phase :
                   {Phase::Replication, Phase::Propagation}) {
                EXPECT_EQ(twice.stats.max_words(phase),
                          once.stats.max_words(phase));
                EXPECT_EQ(twice.stats.max_messages(phase),
                          once.stats.max_messages(phase));
              }
              for (const KernelResult* result : {&once, &twice}) {
                EXPECT_EQ(result->stats.setup_builds(), 0);
                EXPECT_EQ(result->stats.setup_seconds(), 0.0);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Plan, FusedmmExecuteMatchesReference) {
  const auto expect_near = [](const DenseMatrix& got,
                              const DenseMatrix& want) {
    EXPECT_LE(got.max_abs_diff(want),
              1e-9 * std::max<Scalar>(want.frobenius_norm(), 1.0));
  };
  for (const Config& cfg : kFamilies) {
    const auto prob = small_problem(cfg);
    // Replication reuse is a shift-family / dense-repl elision.
    const Elision elision = cfg.kind == AlgorithmKind::SparseRepl25D ||
                                    cfg.kind == AlgorithmKind::Baseline1D
                                ? Elision::None
                                : Elision::ReplicationReuse;
    const Plan plan =
        make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
    const auto planned = plan.execute_fusedmm(FusedOrientation::A, elision,
                                              prob.s, prob.a, prob.b, 2);
    expect_near(planned.output,
                reference_fusedmm_a(prob.s, prob.a, prob.b));
    EXPECT_EQ(planned.stats.setup_builds(), 0) << to_string(cfg.kind);
  }
  // 1.5D dense shifting runs orientation-B LocalKernelFusion as the
  // transposed problem and builds that problem's setup on every call;
  // the stats count exactly that one build.
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
  for (int round = 0; round < 2; ++round) {
    const auto planned = plan.execute_fusedmm(
        FusedOrientation::B, Elision::LocalKernelFusion, prob.s, prob.a,
        prob.b);
    expect_near(planned.output,
                reference_fusedmm_b(prob.s, prob.a, prob.b));
    EXPECT_EQ(planned.stats.setup_builds(), 1);
    EXPECT_GT(planned.stats.setup_seconds(), 0.0);
  }
}

/// A resident SimWorld serves many executes; each reports zero setup.
TEST(Plan, ResidentWorldServesRepeatedExecutes) {
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
  EXPECT_GT(plan.build_seconds(), 0.0);
  SimWorld world(cfg.p);
  ExecuteOptions exec;
  exec.world = &world;
  DenseMatrix first;
  for (int round = 0; round < 3; ++round) {
    auto result = plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b, exec);
    EXPECT_EQ(result.stats.setup_builds(), 0);
    if (round == 0) {
      first = std::move(result.dense);
    } else {
      EXPECT_EQ(result.dense.max_abs_diff(first), 0.0);
    }
  }
}

TEST(Plan, RejectsMismatchedMatrixOrWidth) {
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  const Index width = prob.a.cols();
  const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s, width);
  // The fingerprint itself must differ, so the throw is the Plan's check
  // and not a later input validation.
  const auto expect_rejected = [&](const Plan& built, const CooMatrix& s,
                                   const std::string& what) {
    EXPECT_NE(plan_fingerprint(s, width), built.fingerprint()) << what;
    EXPECT_THROW(built.execute(Mode::SpMMB, s, prob.a, prob.b), Error)
        << what;
  };
  // S with one entry's row (or column) index moved by one, in range.
  const auto moved = [&](std::size_t at, bool row) {
    const CooMatrix& s = prob.s;
    std::vector<Index> rows(s.row_idx().begin(), s.row_idx().end());
    std::vector<Index> cols(s.col_idx().begin(), s.col_idx().end());
    auto& idx = row ? rows : cols;
    idx[at] = (idx[at] + 1) % (row ? s.rows() : s.cols());
    return CooMatrix(s.rows(), s.cols(), std::move(rows), std::move(cols),
                     {s.values().begin(), s.values().end()});
  };
  const Index nnz = prob.s.nnz();
  ASSERT_GE(nnz, 3);
  for (const Index k : {Index{0}, nnz / 2, nnz - 1}) {
    const auto at = static_cast<std::size_t>(k);
    const std::string entry = "entry " + std::to_string(k);
    // Same shape, one bit of one value flipped: low mantissa, mid
    // mantissa, lowest exponent bit, sign.
    for (const int bit : {0, 31, 52, 63}) {
      CooMatrix flipped = prob.s;
      flipped.values()[at] = std::bit_cast<Scalar>(
          std::bit_cast<std::uint64_t>(flipped.values()[at]) ^
          (std::uint64_t{1} << bit));
      expect_rejected(plan, flipped, entry + " bit " + std::to_string(bit));
    }
    expect_rejected(plan, moved(at, true), entry + " row");
    expect_rejected(plan, moved(at, false), entry + " col");
  }
  // +0.0 and -0.0 compare equal but are different inputs.
  CooMatrix plus_zero = prob.s;
  plus_zero.values()[static_cast<std::size_t>(nnz / 2)] = 0.0;
  const Plan zero_plan =
      make_plan(cfg.kind, cfg.p, cfg.c, plus_zero, width);
  CooMatrix minus_zero = plus_zero;
  minus_zero.values()[static_cast<std::size_t>(nnz / 2)] = -0.0;
  expect_rejected(zero_plan, minus_zero, "-0.0 for +0.0");
  // Two sign flips: a word step that never moves bit 63 down lets them
  // cancel.
  CooMatrix negated = prob.s;
  negated.values()[0] = -negated.values()[0];
  negated.values()[static_cast<std::size_t>(nnz - 1)] =
      -negated.values()[static_cast<std::size_t>(nnz - 1)];
  expect_rejected(plan, negated, "two values negated");
  // Two unequal values swapped.
  CooMatrix swapped = prob.s;
  ASSERT_NE(swapped.values()[0], swapped.values()[1]);
  std::swap(swapped.values()[0], swapped.values()[1]);
  expect_rejected(plan, swapped, "two values swapped");
  // Wrong width.
  DenseMatrix wide_a(prob.a.rows(), prob.a.cols() * 2);
  DenseMatrix wide_b(prob.b.rows(), prob.b.cols() * 2);
  EXPECT_THROW(plan.execute(Mode::SpMMB, prob.s, wide_a, wide_b), Error);
  // Equal contents are the same input: a Plan built from a copy of S
  // accepts S.
  const CooMatrix copy = prob.s;
  const Plan copy_plan = make_plan(cfg.kind, cfg.p, cfg.c, copy, width);
  EXPECT_EQ(copy_plan.fingerprint(), plan.fingerprint());
  EXPECT_NO_THROW(copy_plan.execute(Mode::SpMMB, prob.s, prob.a, prob.b));
}

/// A driver only accepts plan data it built itself.
TEST(Plan, RejectsForeignPlanData) {
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  auto dense_shift =
      detail::make_algorithm(AlgorithmKind::DenseShift15D, 4, 2);
  auto baseline = detail::make_algorithm(AlgorithmKind::Baseline1D, 4, 1);
  const auto foreign = baseline->make_plan_data(prob.s, prob.a.cols());
  detail::ExecContext ctx;
  ctx.plan = foreign.get();
  EXPECT_THROW(
      dense_shift->run_kernel(ctx, Mode::SpMMB, prob.s, prob.a, prob.b),
      Error);
  detail::ExecContext null_ctx;
  EXPECT_THROW(
      dense_shift->run_kernel(null_ctx, Mode::SpMMB, prob.s, prob.a,
                              prob.b),
      Error);
}

// --- Replication cache --------------------------------------------------

/// Warm-cache executes move zero replication words; invalidation brings
/// the traffic back.
TEST(ReplicationCacheTest, CutsReplicationWordsAcrossCalls) {
  for (const Config& cfg : {kFamilies[0], kFamilies[2]}) {
    const auto prob = small_problem(cfg);
    const Plan plan =
        make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
    ReplicationCache cache(cfg.p);
    ExecuteOptions exec;
    exec.cache = &cache;
    const auto cold = plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b,
                                   exec);
    EXPECT_GT(cold.stats.max_words(Phase::Replication), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    const auto warm = plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b,
                                   exec);
    EXPECT_EQ(warm.stats.max_words(Phase::Replication), 0u)
        << to_string(cfg.kind);
    EXPECT_EQ(cache.hits(), 1u);
    // Bit-identical to the cold run and to a cache-free run.
    EXPECT_EQ(warm.sddmm_values, cold.sddmm_values);
    cache.invalidate();
    const auto after = plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b,
                                    exec);
    EXPECT_GT(after.stats.max_words(Phase::Replication), 0u);
    EXPECT_EQ(after.sddmm_values, cold.sddmm_values);
  }
}

/// SpMMA's replication phase is the output reduce-scatter — never
/// cacheable; the cache must stay untouched.
TEST(ReplicationCacheTest, SpmmaNeverConsultsTheCache) {
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
  ReplicationCache cache(cfg.p);
  ExecuteOptions exec;
  exec.cache = &cache;
  for (int round = 0; round < 2; ++round) {
    plan.execute(Mode::SpMMA, prob.s, prob.a, prob.b, exec);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

/// Armed faults disable the cache (retry paths would repopulate slots
/// nondeterministically); the run still completes and stays correct.
TEST(ReplicationCacheTest, FaultsDisableTheCache) {
  const Config cfg = kFamilies[0];
  FaultPlan faults = parse_fault_plan("seed=3,drop=0.05");
  AlgorithmOptions options;
  options.faults = &faults;
  const auto prob = small_problem(cfg);
  const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                              prob.a.cols(), options);
  ReplicationCache cache(cfg.p);
  ExecuteOptions exec;
  exec.cache = &cache;
  plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b, exec);
  plan.execute(Mode::SDDMM, prob.s, prob.a, prob.b, exec);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

// --- Batched scoring passes --------------------------------------------

TEST(Serving, SnapBatchWidthPicksSweetSpots) {
  EXPECT_EQ(snap_batch_width(1), 32);
  EXPECT_EQ(snap_batch_width(32), 32);
  EXPECT_EQ(snap_batch_width(33), 64);
  EXPECT_EQ(snap_batch_width(64), 64);
  EXPECT_EQ(snap_batch_width(65), 128);
  EXPECT_EQ(snap_batch_width(128), 128);
  // Cap below the sweet spots: plain round-up to the multiple.
  EXPECT_EQ(snap_batch_width(5, 16, 4), 8);
  EXPECT_EQ(snap_batch_width(3, 8, 8), 8);
  // Grid multiple coarser than the spot rounds up.
  EXPECT_EQ(snap_batch_width(10, 128, 48), 48);
}

bool same_bits(std::span<const Scalar> x, std::span<const Scalar> y) {
  return std::ranges::equal(x, y, [](Scalar u, Scalar v) {
    return std::bit_cast<std::uint64_t>(u) == std::bit_cast<std::uint64_t>(v);
  });
}

/// Request j lands in column j of row i; every entry of the block is
/// written, pad rows and pad columns as exact zeros, so the block may
/// arrive uninitialized.
TEST(Serving, FillPlacesRequestsAndPadsWithZeros) {
  Rng rng(21);
  DenseMatrix a(5, 8);
  a.fill_random(rng);
  const std::vector<Index> users = {4, 1, 4};
  DenseMatrix block(7, 32);
  block.fill(std::nan(""));
  const Slice all{0, block.rows()};
  fill_similarity_block(a, users, block, all);
  for (Index i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < users.size(); ++j) {
      // Width 8 takes the generic dot, which sums in order of f.
      Scalar dot = 0;
      for (Index f = 0; f < a.cols(); ++f) dot += a(i, f) * a(users[j], f);
      EXPECT_EQ(block(i, static_cast<Index>(j)), dot);
    }
    for (Index j = 3; j < block.cols(); ++j) EXPECT_EQ(block(i, j), 0.0);
  }
  for (Index i = a.rows(); i < block.rows(); ++i) {
    for (Index j = 0; j < block.cols(); ++j) EXPECT_EQ(block(i, j), 0.0);
  }
  const std::vector<Index> bad_user = {5};
  EXPECT_THROW(fill_similarity_block(a, bad_user, block, all), Error);
  DenseMatrix short_block(4, 32);
  EXPECT_THROW(fill_similarity_block(a, users, short_block, all), Error);
  DenseMatrix narrow(7, 2);
  EXPECT_THROW(fill_similarity_block(a, users, narrow, all), Error);
  EXPECT_THROW(fill_similarity_block(a, users, block, {0, 8}), Error);
  EXPECT_THROW(fill_similarity_block(a, users, block, {3, 2}), Error);
  EXPECT_THROW(fill_similarity_block(a, users, block, {-1, 2}), Error);
}

/// One contiguous row slice per rank, empty slices and slices across the
/// real/pad boundary included: each slice writes exactly its own block
/// rows, with the bits of one whole-range fill — at a width with no
/// specialized dot (8) and at a specialized one (32).
TEST(Serving, SlicedFillsMatchTheWholeRangeFill) {
  Rng rng(22);
  const std::vector<Index> users = {4, 1, 4};
  // Rows 5 and 6 are pad rows; 8 ranks leave one slice empty.
  DenseMatrix blank(7, 32);
  blank.fill(std::nan(""));
  for (const Index r : {Index{8}, Index{32}}) {
    DenseMatrix a(5, r);
    a.fill_random(rng);
    DenseMatrix whole = blank;
    fill_similarity_block(a, users, whole, {0, whole.rows()});
    for (const int p : {1, 2, 3, 4, 8}) {
      DenseMatrix sliced = blank;
      const std::vector<Index> bounds = partition_uniform(sliced.rows(), p);
      for (std::size_t q = 0; q + 1 < bounds.size(); ++q) {
        const Slice rows{bounds[q], bounds[q + 1]};
        DenseMatrix alone = blank;
        fill_similarity_block(a, users, alone, rows);
        fill_similarity_block(a, users, sliced, rows);
        for (Index row = 0; row < alone.rows(); ++row) {
          const bool mine = row >= rows.begin && row < rows.end;
          EXPECT_TRUE(same_bits(alone.row(row),
                                (mine ? whole : blank).row(row)))
              << "r = " << r << ", p = " << p << ", slice " << q
              << ", row " << row;
        }
      }
      EXPECT_TRUE(same_bits(sliced.data(), whole.data()))
          << "r = " << r << ", p = " << p;
    }
  }
}

/// The reference for top_k_unrated: a full sort of one request's unrated
/// items.
std::vector<Recommendation> sorted_unrated(const DenseMatrix& scores,
                                           Index column, Index items,
                                           const std::vector<Index>& rated,
                                           int k) {
  std::vector<Recommendation> all;
  for (Index item = 0; item < items; ++item) {
    if (!std::binary_search(rated.begin(), rated.end(), item)) {
      all.push_back({item, scores(item, column)});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Recommendation& x, const Recommendation& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.item < y.item;
            });
  all.resize(std::min(all.size(), static_cast<std::size_t>(k)));
  return all;
}

void expect_same(const std::vector<Recommendation>& got,
                 const std::vector<Recommendation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score));
  }
}

/// top_k_unrated over the whole batch: the serial pass.
std::vector<std::vector<Recommendation>> top_k_whole(
    const DenseMatrix& scores, Index items, const std::vector<Index>& users,
    const std::vector<std::vector<Index>>& rated, int k) {
  std::vector<std::vector<Recommendation>> answers(users.size());
  top_k_unrated(scores, items, users, rated, k,
                {0, static_cast<Index>(users.size())}, answers);
  return answers;
}

TEST(Serving, TopKUnratedPutsTheLowerItemFirstOnTies) {
  // Items 1, 3 and 4 tie at the top; 0 and 5 tie below them.
  const DenseMatrix scores(6, 1, std::vector<Scalar>{1, 2, 0.5, 2, 2, 1});
  const std::vector<std::vector<Index>> rated = {{}};
  const std::vector<Index> users = {0};
  const auto got = top_k_whole(scores, 6, users, rated, 4);
  expect_same(got.front(), {{1, 2}, {3, 2}, {4, 2}, {0, 1}});
}

TEST(Serving, TopKUnratedSkipsRatedItemsAtBothEnds) {
  // Row 4 is padding: its score never competes.
  const DenseMatrix scores(5, 3, std::vector<Scalar>{9, 1, 5,   //
                                                     3, 2, 4,   //
                                                     7, 3, 3,   //
                                                     8, 4, 2,   //
                                                     99, 99, 99});
  // User 0 rated the first and the last item, user 1 rated everything,
  // user 2 nothing; column j answers users[j].
  const std::vector<std::vector<Index>> rated = {{0, 3}, {0, 1, 2, 3}, {}};
  const std::vector<Index> users = {0, 1, 2};
  const auto got = top_k_whole(scores, 4, users, rated, 10);
  ASSERT_EQ(got.size(), 3u);
  // k above the unrated count: every unrated item, sorted.
  expect_same(got[0], {{2, 7}, {1, 3}});
  EXPECT_TRUE(got[1].empty());
  expect_same(got[2], {{0, 5}, {1, 4}, {2, 3}, {3, 2}});
  EXPECT_THROW(top_k_whole(scores, 4, users, rated, 0), Error);
  EXPECT_THROW(top_k_whole(scores, 6, users, rated, 1), Error);
  const std::vector<Index> unknown = {3};
  EXPECT_THROW(top_k_whole(scores, 4, unknown, rated, 1), Error);
  std::vector<std::vector<Recommendation>> slots(users.size());
  EXPECT_THROW(top_k_unrated(scores, 4, users, rated, 1, {2, 4}, slots),
               Error);
  EXPECT_THROW(top_k_unrated(scores, 4, users, rated, 1, {2, 1}, slots),
               Error);
  std::vector<std::vector<Recommendation>> too_few(2);
  EXPECT_THROW(top_k_unrated(scores, 4, users, rated, 1, {0, 2}, too_few),
               Error);
}

TEST(Serving, TopKUnratedMatchesAFullSort) {
  Rng rng(2027);
  for (int trial = 0; trial < 200; ++trial) {
    const Index items = rng.next_index(1, 40);
    const Index requests = rng.next_index(1, 5);
    // Padded rows and columns hold scores that must never be picked.
    DenseMatrix scores(items + 2, requests + 1);
    scores.fill(1e9);
    std::vector<std::vector<Index>> rated(static_cast<std::size_t>(requests));
    std::vector<Index> users;
    for (Index j = 0; j < requests; ++j) {
      // Few distinct scores, so ties are common.
      for (Index item = 0; item < items; ++item) {
        scores(item, j) = static_cast<Scalar>(rng.next_index(0, 6)) * 0.5;
        if (rng.next_index(0, 4) == 0) {
          rated[static_cast<std::size_t>(j)].push_back(item);
        }
      }
      users.push_back(j);
    }
    const int k = static_cast<int>(rng.next_index(1, items + 3));
    const auto got = top_k_whole(scores, items, users, rated, k);
    ASSERT_EQ(got.size(), users.size());
    for (Index j = 0; j < requests; ++j) {
      expect_same(got[static_cast<std::size_t>(j)],
                  sorted_unrated(scores, j, items,
                                 rated[static_cast<std::size_t>(j)], k));
    }
  }
}

/// Each rank's contiguous request slice, empty slices included, writes
/// the whole batch's answers into its own slots and leaves every other
/// slot alone.
TEST(Serving, SlicedTopKMatchesTheWholeBatch) {
  Rng rng(2029);
  const std::vector<Recommendation> untouched = {{-1, -1}};
  for (int trial = 0; trial < 50; ++trial) {
    const Index items = rng.next_index(1, 30);
    const Index requests = rng.next_index(1, 6);
    DenseMatrix scores(items + 1, requests);
    std::vector<std::vector<Index>> rated(3);
    for (Index item = 0; item < items; ++item) {
      for (Index j = 0; j < requests; ++j) {
        scores(item, j) = static_cast<Scalar>(rng.next_index(0, 6)) * 0.5;
      }
      for (auto& list : rated) {
        if (rng.next_index(0, 4) == 0) list.push_back(item);
      }
    }
    // Requests repeat users, so slices share rated lists.
    std::vector<Index> users;
    for (Index j = 0; j < requests; ++j) users.push_back(rng.next_index(0, 3));
    const int k = static_cast<int>(rng.next_index(1, items + 2));
    const auto whole = top_k_whole(scores, items, users, rated, k);
    for (const int p : {1, 2, 3, 4, 8}) {
      const std::vector<Index> bounds = partition_uniform(requests, p);
      for (std::size_t q = 0; q + 1 < bounds.size(); ++q) {
        std::vector<std::vector<Recommendation>> answers(users.size(),
                                                         untouched);
        top_k_unrated(scores, items, users, rated, k,
                      {bounds[q], bounds[q + 1]}, answers);
        for (Index j = 0; j < requests; ++j) {
          const bool mine = j >= bounds[q] && j < bounds[q + 1];
          expect_same(answers[static_cast<std::size_t>(j)],
                      mine ? whole[static_cast<std::size_t>(j)] : untouched);
        }
      }
    }
  }
}

// --- The ALS server -----------------------------------------------------

TEST(AlsServerTest, BatchedEqualsUnbatched) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 11);
  AlsServer server(ratings, small_server_config());
  const std::vector<Index> users = {3, 9, 14, 14, 27};
  const auto batched = server.top_k({users.data(), users.size()}, 4);
  ASSERT_EQ(batched.size(), users.size());
  // One batched pass answered all five requests.
  EXPECT_EQ(server.report().batches, 1);
  EXPECT_EQ(server.report().requests, 5);
  EXPECT_EQ(server.report().setup_builds, 0);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto narrow = server.top_k_one(users[i], 4);
    ASSERT_EQ(batched[i].size(), narrow.size());
    for (std::size_t j = 0; j < narrow.size(); ++j) {
      EXPECT_EQ(batched[i][j].item, narrow[j].item);
      EXPECT_EQ(batched[i][j].score, narrow[j].score);
    }
  }
  // Recommendations never include items the user already rated.
  for (std::size_t i = 0; i < users.size(); ++i) {
    for (const auto& rec : batched[i]) {
      for (Index k = 0; k < ratings.nnz(); ++k) {
        const auto e = ratings.entry(k);
        if (e.row == users[i]) {
          EXPECT_NE(e.col, rec.item);
        }
      }
    }
  }
}

/// More requests than one pass holds: three passes (32 + 32 + 6), the
/// answers in request order, each bit-identical in item and score to
/// the narrow unbatched pass — at a width with no specialized dot
/// (rank 8) and at a specialized one (rank 32).
TEST(AlsServerTest, MultiBatchMatchesNarrowPasses) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 16);
  std::vector<Index> users;
  for (Index i = 0; i < 70; ++i) users.push_back((i * 7) % 32);
  for (const Index rank : {Index{8}, Index{32}}) {
    AlsServerConfig config = small_server_config();
    config.train.rank = rank;
    AlsServer server(ratings, config);
    const auto batched = server.top_k({users.data(), users.size()}, 5);
    ASSERT_EQ(batched.size(), users.size());
    EXPECT_EQ(server.report().batches, 3);
    EXPECT_EQ(server.report().requests, 70);
    for (std::size_t i = 0; i < users.size(); ++i) {
      expect_same(batched[i], server.top_k_one(users[i], 5));
    }
  }
}

/// An 8-rank world (p = 8, c = 2) splits each pass among its ranks: one
/// request leaves seven ranks without a request to pick for, five
/// requests give uneven shares; every answer equals the narrow pass.
TEST(AlsServerTest, EightRankPassesMatchNarrowPasses) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 18);
  AlsServerConfig config = small_server_config();
  config.train.p = 8;
  config.train.c = 2;
  AlsServer server(ratings, config);
  ASSERT_EQ(server.p(), 8);
  for (const std::vector<Index>& users :
       {std::vector<Index>{11}, std::vector<Index>{3, 9, 14, 14, 27}}) {
    const auto batched = server.top_k({users.data(), users.size()}, 4);
    ASSERT_EQ(batched.size(), users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      expect_same(batched[i], server.top_k_one(users[i], 4));
    }
  }
  EXPECT_EQ(server.report().setup_builds, 0);
}

/// Every pass adds its fill, execute and top-k wall seconds to the
/// report; observed_rmse runs no scoring pass and adds none.
TEST(AlsServerTest, ReportSumsStageSecondsPerPass) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 19);
  AlsServer server(ratings, small_server_config());
  const auto stages = [&] {
    const ServeReport& r = server.report();
    return std::vector<double>{r.fill_seconds, r.execute_seconds,
                               r.top_k_seconds};
  };
  std::vector<double> before = stages();
  EXPECT_EQ(before, std::vector<double>(3, 0.0));
  const auto expect_pass_adds_time = [&](const std::function<void()>& pass) {
    pass();
    const std::vector<double> after = stages();
    for (std::size_t s = 0; s < after.size(); ++s) {
      EXPECT_GT(after[s], before[s]) << "stage " << s;
    }
    server.observed_rmse();
    EXPECT_EQ(stages(), after);
    before = after;
  };
  expect_pass_adds_time([&] { server.top_k_one(5, 3); });
  const std::vector<Index> users = {1, 2, 3};
  expect_pass_adds_time([&] { server.top_k({users.data(), users.size()}, 3); });
}

/// Every id of a call is checked before its first pass: an id out of
/// range in the second batch leaves no pass run and nothing counted.
TEST(AlsServerTest, RejectsABadUserBeforeAnyPass) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 17);
  AlsServer server(ratings, small_server_config());
  std::vector<Index> users(32, 3);
  users.push_back(server.users());
  EXPECT_THROW(server.top_k({users.data(), users.size()}, 3), Error);
  EXPECT_THROW(server.top_k_one(-1, 3), Error);
  EXPECT_EQ(server.report().batches, 0);
  EXPECT_EQ(server.report().requests, 0);
}

/// The degrade path's fault plan: rank 1 is lost for good on the first
/// serving run, and the server re-plans onto a smaller grid.
AlsServerConfig degrading_config(FaultPlan& faults) {
  AlsServerConfig config = small_server_config();
  faults = parse_fault_plan("seed=9,crash=1@any:0");
  config.exec.faults = &faults;
  config.exec.max_recoveries = 0;
  config.exec.degrade = true;
  return config;
}

/// observed_rmse's stationary factor rides the replication cache, whose
/// warm runs reuse the gathered block bit-exactly. A degrade rebuilds
/// the residency and its cache (the faulted run itself uses none), so
/// the shrunken grid re-gathers once and then hits again, with the same
/// model up to summation order.
TEST(AlsServerTest, RmseRidesTheCacheAfterDegrade) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 12);
  AlsServer clean(ratings, small_server_config());
  const Scalar cold = clean.observed_rmse();
  const Scalar warm = clean.observed_rmse();
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(clean.report().cache_misses, 1u);
  EXPECT_EQ(clean.report().cache_hits, 1u);

  FaultPlan faults;
  AlsServer server(ratings, degrading_config(faults));
  const Scalar degraded = server.observed_rmse();
  ASSERT_TRUE(server.report().degraded);
  EXPECT_EQ(server.report().replans, 1);
  EXPECT_EQ(server.report().cache_misses, 0u);
  EXPECT_EQ(server.report().cache_hits, 0u);
  const Scalar rebuilt_cold = server.observed_rmse();
  const Scalar rebuilt_warm = server.observed_rmse();
  EXPECT_EQ(rebuilt_cold, rebuilt_warm);
  EXPECT_EQ(server.report().cache_misses, 1u);
  EXPECT_EQ(server.report().cache_hits, 1u);
  EXPECT_NEAR(degraded, cold, 1e-9);
  EXPECT_NEAR(rebuilt_cold, cold, 1e-9);
  const auto before = clean.top_k_one(5, 3);
  const auto rebuilt = server.top_k_one(5, 3);
  ASSERT_EQ(before.size(), rebuilt.size());
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(before[j].item, rebuilt[j].item);
    EXPECT_NEAR(before[j].score, rebuilt[j].score, 1e-9);
  }
}

/// On skewed ratings every plan the server builds is balanced, the same
/// assignment for every pass width, so a batched answer still equals the
/// narrow pass in every bit — on the full grid and, after a degrade, on
/// the shrunken one.
TEST(AlsServerTest, SkewedRatingsBatchEqualsNarrowAcrossADegrade) {
  const CooMatrix ratings = skewed_ratings(256, 128, 8, 16);
  const AlsServerConfig config = small_server_config();
  const auto planned_balanced = [&](int p, int c) {
    const PaddedProblem padded =
        pad_problem(config.train.kind, p, c, ratings,
                    DenseMatrix(ratings.rows(), 8),
                    DenseMatrix(ratings.cols(), 8));
    return make_plan(config.train.kind, p, c, padded.s, 8).balanced();
  };
  ASSERT_TRUE(planned_balanced(4, 2));
  const auto [p2, c2] = shrink_config(config.train.kind, 4, 2);
  ASSERT_TRUE(planned_balanced(p2, c2));
  // Hub users first, then a tail user.
  const std::vector<Index> users = {0, 1, 2, 3, 100, 255};
  const auto expect_batch_equals_narrow = [&](AlsServer& server) {
    const auto batched = server.top_k({users.data(), users.size()}, 5);
    ASSERT_EQ(batched.size(), users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      expect_same(batched[i], server.top_k_one(users[i], 5));
    }
  };
  AlsServer clean(ratings, config);
  expect_batch_equals_narrow(clean);

  FaultPlan faults;
  AlsServer server(ratings, degrading_config(faults));
  const auto degraded = server.top_k({users.data(), users.size()}, 5);
  ASSERT_TRUE(server.report().degraded);
  EXPECT_EQ(server.p(), p2);
  expect_batch_equals_narrow(server);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto want = clean.top_k_one(users[i], 5);
    ASSERT_EQ(degraded[i].size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(degraded[i][j].item, want[j].item);
      EXPECT_NEAR(degraded[i][j].score, want[j].score, 1e-9);
    }
  }
}

TEST(AlsServerTest, DegradedReplanKeepsServing) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 14);
  AlsServerConfig config = small_server_config();
  FaultPlan faults = parse_fault_plan("seed=9,crash=1@any:0");
  config.exec.faults = &faults;
  config.exec.max_recoveries = 0;
  config.exec.degrade = true;
  AlsServer server(ratings, config);
  EXPECT_EQ(server.p(), 4);
  const std::vector<Index> users = {7, 21};
  const auto recs = server.top_k({users.data(), users.size()}, 3);
  ASSERT_EQ(recs.size(), users.size());
  const ServeReport& report = server.report();
  EXPECT_TRUE(report.degraded);
  EXPECT_GE(report.degraded_rank, 0);
  EXPECT_EQ(report.degraded_from, 4);
  EXPECT_LT(report.degraded_to, report.degraded_from);
  EXPECT_LT(server.p(), 4);
  EXPECT_GE(report.replans, 1);
  // The shrunken residency keeps serving, fault-free, with the same
  // answers as an untroubled server (training was identical).
  AlsServer clean(ratings, small_server_config());
  const auto degraded_recs = server.top_k_one(7, 3);
  const auto clean_recs = clean.top_k_one(7, 3);
  ASSERT_EQ(degraded_recs.size(), clean_recs.size());
  for (std::size_t j = 0; j < degraded_recs.size(); ++j) {
    EXPECT_EQ(degraded_recs[j].item, clean_recs[j].item);
    EXPECT_NEAR(degraded_recs[j].score, clean_recs[j].score, 1e-9);
  }
  EXPECT_FALSE(server.report().degraded && server.p() == 4);
  // On the shrunken world, a batched pass still equals the narrow ones.
  const auto shrunk = server.top_k({users.data(), users.size()}, 3);
  ASSERT_EQ(shrunk.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    expect_same(shrunk[i], server.top_k_one(users[i], 3));
  }
}

/// The configured wire codec rides every serving pass on the plans the
/// server builds: a bf16 server answers (batched still bit-identical to
/// unbatched), but requests demanding exact top-k ties are rejected
/// under bf16 and accepted at full / f32 precision.
TEST(AlsServerTest, WireCodecPassesThroughAndGuardsExactTies) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 15);
  AlsServerConfig lossy = small_server_config();
  lossy.exec.codec = {WirePrecision::BF16};
  AlsServer server(ratings, lossy);
  const std::vector<Index> users = {2, 6, 19};
  const auto batched = server.top_k({users.data(), users.size()}, 3);
  ASSERT_EQ(batched.size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const auto narrow = server.top_k_one(users[i], 3);
    ASSERT_EQ(batched[i].size(), narrow.size());
    for (std::size_t j = 0; j < narrow.size(); ++j) {
      EXPECT_EQ(batched[i][j].item, narrow[j].item);
      EXPECT_EQ(batched[i][j].score, narrow[j].score);
    }
  }
  // The lossy wire moves the model's observed RMSE only within the
  // documented bf16 bound of the full-precision server's.
  AlsServer exact(ratings, small_server_config());
  EXPECT_NEAR(server.observed_rmse(), exact.observed_rmse(), 0.05);
  // The guard rail: exact top-k ties are incompatible with bf16...
  EXPECT_THROW(server.top_k({users.data(), users.size()}, 3, true), Error);
  EXPECT_THROW(server.top_k_one(users[0], 3, true), Error);
  // ...and fine at full and f32 wire precision.
  EXPECT_NO_THROW(exact.top_k_one(users[0], 3, true));
  AlsServerConfig f32 = small_server_config();
  f32.exec.codec.precision = WirePrecision::F32;
  AlsServer f32_server(ratings, f32);
  EXPECT_NO_THROW(f32_server.top_k_one(users[0], 3, true));
}

// --- Serving cost-model helpers ----------------------------------------

TEST(CostModelServing, AmortizedSetupShare) {
  EXPECT_DOUBLE_EQ(amortized_setup_share(1.0, 1.0, 3), 0.25);
  EXPECT_DOUBLE_EQ(amortized_setup_share(0.0, 1.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(amortized_setup_share(0.0, 0.0, 0), 0.0);
  // More requests amortize the build away monotonically.
  EXPECT_LT(amortized_setup_share(1.0, 0.5, 100),
            amortized_setup_share(1.0, 0.5, 10));
}

TEST(CostModelServing, BatchingNeverMovesMoreWords) {
  CostInputs in;
  in.m = 4096;
  in.n = 4096;
  in.nnz = 32768;
  in.r = 32;
  in.p = 16;
  in.c = 4;
  for (const AlgorithmKind kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::DenseRepl25D}) {
    EXPECT_DOUBLE_EQ(batching_words_ratio(kind, in, 1), 1.0);
    // k narrow passes move at least as many words as one k-wide pass.
    EXPECT_GE(batching_words_ratio(kind, in, 4), 1.0);
    EXPECT_GE(batching_words_ratio(kind, in, 8),
              batching_words_ratio(kind, in, 2) * 0.999);
  }
  EXPECT_THROW(batching_words_ratio(AlgorithmKind::DenseShift15D, in, 0),
               Error);
}

} // namespace
} // namespace dsk
