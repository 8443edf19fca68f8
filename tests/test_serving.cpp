/// Serving-layer tests: the immutable Plan / execute split, resident
/// worlds, the cross-call replication cache, request batching, and the
/// ALS server's degrade / reshard behavior.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "apps/serve_als.hpp"
#include "apps/serving.hpp"
#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "dist/replication_cache.hpp"
#include "model/cost_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/world.hpp"
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

PaddedProblem small_problem(const Config& cfg, Index n = 48, Index d = 4,
                            Index r = 8, std::uint64_t seed = 77) {
  Rng rng(seed);
  CooMatrix s = erdos_renyi_fixed_row(n, n, d, rng);
  DenseMatrix a(n, r), b(n, r);
  a.fill_random(rng);
  b.fill_random(rng);
  return pad_problem(cfg.kind, cfg.p, cfg.c, s, a, b);
}

CooMatrix synthetic_ratings(Index users, Index items, Index per_user,
                            std::uint64_t seed) {
  Rng rng(seed);
  const Index true_rank = 4;
  DenseMatrix taste(users, true_rank);
  DenseMatrix appeal(items, true_rank);
  taste.fill_gaussian(rng, 1.0);
  appeal.fill_gaussian(rng, 1.0);
  const CooMatrix pattern =
      erdos_renyi_fixed_row(users, items, per_user, rng);
  CooMatrix ratings(users, items);
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

/// The tentpole guarantee: one Plan executed N times is bit-identical to
/// N fresh per-call runs, across every family and the whole
/// {schedule} x {replication} x {propagation} option cube, under the
/// default wire codec and a lossy one with compressed index headers,
/// and the executes rebuild zero setup state.
TEST(Plan, ExecuteMatchesFreshCallsAcrossOptionCube) {
  std::vector<AlgorithmOptions> cube;
  for (const ShiftSchedule schedule :
       {ShiftSchedule::DoubleBuffered, ShiftSchedule::BulkSynchronous}) {
    for (const ReplicationMode replication :
         {ReplicationMode::Dense, ReplicationMode::Auto}) {
      for (const PropagationMode propagation :
           {PropagationMode::Dense, PropagationMode::Auto}) {
        for (const WireCodec codec :
             {WireCodec{}, WireCodec{WirePrecision::BF16}}) {
          AlgorithmOptions options;
          options.schedule = schedule;
          options.replication = replication;
          options.propagation = propagation;
          options.codec = codec;
          cube.push_back(options);
        }
      }
    }
  }
  for (const Config& cfg : kFamilies) {
    for (const AlgorithmOptions& options : cube) {
      // The 1D baseline only implements SpMMA.
      const Mode mode = cfg.kind == AlgorithmKind::Baseline1D ? Mode::SpMMA
                                                              : Mode::SpMMB;
      const auto prob = small_problem(cfg);
      const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, prob.s,
                                  prob.a.cols(), options);
      auto algo = make_algorithm(cfg.kind, cfg.p, cfg.c, options);
      for (int round = 0; round < 2; ++round) {
        auto planned = plan.execute(mode, prob.s, prob.a, prob.b);
        auto fresh = algo->run_kernel(mode, prob.s, prob.a, prob.b);
        EXPECT_EQ(planned.dense.max_abs_diff(fresh.dense), 0.0)
            << to_string(cfg.kind) << " round " << round;
        EXPECT_EQ(planned.stats.setup_builds(), 0);
        EXPECT_EQ(planned.stats.setup_seconds(), 0.0);
        EXPECT_EQ(fresh.stats.setup_builds(), 1);
        EXPECT_GT(fresh.stats.setup_seconds(), 0.0);
        EXPECT_EQ(planned.stats.max_words(Phase::Replication),
                  fresh.stats.max_words(Phase::Replication));
        EXPECT_EQ(planned.stats.max_words(Phase::Propagation),
                  fresh.stats.max_words(Phase::Propagation));
      }
    }
  }
}

TEST(Plan, FusedmmExecuteMatchesFreshCall) {
  for (const Config& cfg : kFamilies) {
    const auto prob = small_problem(cfg);
    // Replication reuse is a shift-family / dense-repl elision.
    const Elision elision = cfg.kind == AlgorithmKind::SparseRepl25D ||
                                    cfg.kind == AlgorithmKind::Baseline1D
                                ? Elision::None
                                : Elision::ReplicationReuse;
    const Plan plan =
        make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
    auto algo = make_algorithm(cfg.kind, cfg.p, cfg.c);
    const auto planned = plan.execute_fusedmm(FusedOrientation::A, elision,
                                              prob.s, prob.a, prob.b, 2);
    const auto fresh = algo->run_fusedmm(FusedOrientation::A, elision,
                                         prob.s, prob.a, prob.b, 2);
    EXPECT_EQ(planned.output.max_abs_diff(fresh.output), 0.0)
        << to_string(cfg.kind);
    EXPECT_EQ(planned.stats.setup_builds(), 0);
  }
  // 1.5D dense shifting runs orientation-B LocalKernelFusion as the
  // transposed problem and builds that problem's setup on every call;
  // the stats count that build on top of the call's own.
  const Config cfg = kFamilies[0];
  const auto prob = small_problem(cfg);
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, prob.s, prob.a.cols());
  auto algo = make_algorithm(cfg.kind, cfg.p, cfg.c);
  const auto planned = plan.execute_fusedmm(
      FusedOrientation::B, Elision::LocalKernelFusion, prob.s, prob.a,
      prob.b);
  const auto fresh = algo->run_fusedmm(
      FusedOrientation::B, Elision::LocalKernelFusion, prob.s, prob.a,
      prob.b);
  EXPECT_EQ(planned.output.max_abs_diff(fresh.output), 0.0);
  EXPECT_EQ(planned.stats.setup_builds(), 1);
  EXPECT_GT(planned.stats.setup_seconds(), 0.0);
  EXPECT_EQ(fresh.stats.setup_builds(), 2);
  EXPECT_GT(fresh.stats.setup_seconds(), 0.0);
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
  auto dense_shift = make_algorithm(AlgorithmKind::DenseShift15D, 4, 2);
  auto baseline = make_algorithm(AlgorithmKind::Baseline1D, 4, 1);
  const auto foreign = baseline->make_plan_data(prob.s, prob.a.cols());
  ExecContext ctx;
  ctx.plan = foreign.get();
  EXPECT_THROW(
      dense_shift->run_kernel(ctx, Mode::SpMMB, prob.s, prob.a, prob.b),
      Error);
  ExecContext null_ctx;
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

// --- Request batching ---------------------------------------------------

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

TEST(Serving, BatcherTakesFifoAndPadsWithZeros) {
  RequestBatcher batcher(4, 32, 1);
  batcher.enqueue({1, 2, 3, 4});
  batcher.enqueue({5, 6, 7, 8});
  EXPECT_EQ(batcher.pending(), 2);
  const auto batch = batcher.take();
  EXPECT_EQ(batch.real, 2);
  EXPECT_EQ(batch.columns.rows(), 4);
  EXPECT_EQ(batch.columns.cols(), 32);
  EXPECT_EQ(batch.columns(0, 0), 1.0);
  EXPECT_EQ(batch.columns(3, 1), 8.0);
  EXPECT_EQ(batch.columns(0, 2), 0.0);
  EXPECT_EQ(batcher.pending(), 0);
  EXPECT_THROW(batcher.enqueue({1, 2, 3}), Error); // wrong length
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

TEST(AlsServerTest, RmseRidesTheCacheUntilReshard) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 12);
  AlsServer server(ratings, small_server_config());
  const Scalar cold = server.observed_rmse();
  const Scalar warm = server.observed_rmse();
  EXPECT_EQ(cold, warm); // warm run reuses the cached gather bit-exactly
  EXPECT_EQ(server.report().cache_misses, 1u);
  EXPECT_EQ(server.report().cache_hits, 1u);
  const auto before = server.top_k_one(5, 3);
  server.reshard();
  EXPECT_EQ(server.report().reshards, 1);
  // The rebuilt residency re-gathers (a miss), and answers are unchanged
  // up to summation order.
  const Scalar after = server.observed_rmse();
  EXPECT_NEAR(after, cold, 1e-9);
  EXPECT_EQ(server.report().cache_misses, 2u);
  const auto rebuilt = server.top_k_one(5, 3);
  ASSERT_EQ(before.size(), rebuilt.size());
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(before[j].item, rebuilt[j].item);
    EXPECT_NEAR(before[j].score, rebuilt[j].score, 1e-9);
  }
}

TEST(AlsServerTest, ImbalanceTriggerReshardsBetweenBatches) {
  const CooMatrix ratings = synthetic_ratings(32, 24, 4, 13);
  AlsServerConfig config = small_server_config();
  // Any pass trips a threshold this tight; the server must reshard and
  // keep answering.
  config.reshard_threshold = 1.0 + 1e-12;
  AlsServer server(ratings, config);
  const std::vector<Index> users = {1, 2, 3};
  const auto recs = server.top_k({users.data(), users.size()}, 3);
  ASSERT_EQ(recs.size(), users.size());
  EXPECT_GE(server.report().reshards, 1);
  EXPECT_GT(server.report().last_imbalance, 0.0);
  const auto again = server.top_k_one(1, 3);
  ASSERT_EQ(again.size(), recs[0].size());
  for (std::size_t j = 0; j < again.size(); ++j) {
    EXPECT_EQ(again[j].item, recs[0][j].item);
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
