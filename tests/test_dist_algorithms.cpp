/// Integration tests: every distributed algorithm family, every unified
/// kernel mode, every FusedMM orientation x elision, across a sweep of
/// (p, c) grids, verified against the serial COO reference. These are the
/// core correctness guarantees behind the paper reproduction: identical
/// outputs from all data distributions and communication schedules.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "local/reference.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

struct Problem {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

/// A small rectangular problem (m != n so orientation bugs cannot
/// cancel) with dimensions divisible by every grid under test.
Problem make_problem(Index m, Index n, Index r, std::uint64_t seed,
                     Index nnz_per_row = 4) {
  Rng rng(seed);
  Problem problem{erdos_renyi_fixed_row(m, n, nnz_per_row, rng),
                  DenseMatrix(m, r), DenseMatrix(n, r)};
  problem.a.fill_random(rng);
  problem.b.fill_random(rng);
  return problem;
}

constexpr Scalar kTol = 1e-9;

Scalar rel_diff(const DenseMatrix& got, const DenseMatrix& want) {
  const Scalar norm = std::max<Scalar>(want.frobenius_norm(), 1.0);
  return got.max_abs_diff(want) / norm;
}

struct Config {
  AlgorithmKind kind;
  int p;
  int c;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string name = to_string(info.param.kind) + "_p" +
                     std::to_string(info.param.p) + "_c" +
                     std::to_string(info.param.c);
  for (auto& ch : name) {
    if (ch == '.' || ch == '-') ch = '_';
  }
  return name;
}

std::vector<Config> kernel_configs() {
  return {
      {AlgorithmKind::DenseShift15D, 1, 1},
      {AlgorithmKind::DenseShift15D, 4, 1},
      {AlgorithmKind::DenseShift15D, 4, 2},
      {AlgorithmKind::DenseShift15D, 4, 4},
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::DenseShift15D, 16, 4},
      {AlgorithmKind::SparseShift15D, 4, 1},
      {AlgorithmKind::SparseShift15D, 4, 2},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::SparseShift15D, 16, 4},
      {AlgorithmKind::DenseRepl25D, 4, 1},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 16, 1},
      {AlgorithmKind::DenseRepl25D, 16, 4},
      {AlgorithmKind::SparseRepl25D, 4, 1},
      {AlgorithmKind::SparseRepl25D, 8, 2},
      {AlgorithmKind::SparseRepl25D, 16, 4},
  };
}

class DistKernel : public ::testing::TestWithParam<Config> {
 protected:
  // m=64, n=128, r=16 divide all tested grids: p up to 16, qc up to 8.
  Problem problem_ = make_problem(64, 128, 16, /*seed=*/77);
};

TEST_P(DistKernel, SpmmAMatchesReference) {
  const auto cfg = GetParam();
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, problem_.s, problem_.a.cols());
  const auto result =
      plan.execute(Mode::SpMMA, problem_.s, problem_.a, problem_.b);
  const auto expected = reference_spmm_a(problem_.s, problem_.b);
  EXPECT_LT(rel_diff(result.dense, expected), kTol);
}

TEST_P(DistKernel, SpmmBMatchesReference) {
  const auto cfg = GetParam();
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, problem_.s, problem_.a.cols());
  const auto result =
      plan.execute(Mode::SpMMB, problem_.s, problem_.a, problem_.b);
  const auto expected = reference_spmm_b(problem_.s, problem_.a);
  EXPECT_LT(rel_diff(result.dense, expected), kTol);
}

TEST_P(DistKernel, SddmmMatchesReference) {
  const auto cfg = GetParam();
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, problem_.s, problem_.a.cols());
  const auto result =
      plan.execute(Mode::SDDMM, problem_.s, problem_.a, problem_.b);
  const auto expected =
      reference_sddmm(problem_.s, problem_.a, problem_.b);
  ASSERT_EQ(result.sddmm_values.size(),
            static_cast<std::size_t>(problem_.s.nnz()));
  Scalar worst = 0;
  for (Index k = 0; k < problem_.s.nnz(); ++k) {
    worst = std::max(worst,
                     std::abs(result.sddmm_values[static_cast<std::size_t>(
                                  k)] -
                              expected.entry(k).value));
  }
  EXPECT_LT(worst, kTol);
}

INSTANTIATE_TEST_SUITE_P(Grids, DistKernel,
                         ::testing::ValuesIn(kernel_configs()),
                         config_name);

struct FusedConfig {
  AlgorithmKind kind;
  int p;
  int c;
  FusedOrientation orientation;
  Elision elision;
};

std::string fused_name(const ::testing::TestParamInfo<FusedConfig>& info) {
  std::string name = to_string(info.param.kind) + "_p" +
                     std::to_string(info.param.p) + "_c" +
                     std::to_string(info.param.c) + "_" +
                     to_string(info.param.orientation) + "_" +
                     to_string(info.param.elision);
  for (auto& ch : name) {
    if (ch == '.' || ch == '-') ch = '_';
  }
  return name;
}

std::vector<FusedConfig> fused_configs() {
  std::vector<FusedConfig> configs;
  const std::vector<std::pair<int, int>> grids15 = {{4, 1}, {4, 2}, {8, 2},
                                                    {16, 4}};
  const std::vector<std::pair<int, int>> grids25 = {{4, 1}, {8, 2}, {16, 4}};
  for (const auto orientation :
       {FusedOrientation::A, FusedOrientation::B}) {
    for (const auto& [p, c] : grids15) {
      for (const auto elision :
           {Elision::None, Elision::ReplicationReuse,
            Elision::LocalKernelFusion}) {
        configs.push_back(
            {AlgorithmKind::DenseShift15D, p, c, orientation, elision});
      }
      for (const auto elision : {Elision::None, Elision::ReplicationReuse}) {
        configs.push_back(
            {AlgorithmKind::SparseShift15D, p, c, orientation, elision});
      }
    }
    for (const auto& [p, c] : grids25) {
      for (const auto elision : {Elision::None, Elision::ReplicationReuse}) {
        configs.push_back(
            {AlgorithmKind::DenseRepl25D, p, c, orientation, elision});
      }
      configs.push_back(
          {AlgorithmKind::SparseRepl25D, p, c, orientation, Elision::None});
    }
  }
  return configs;
}

class DistFused : public ::testing::TestWithParam<FusedConfig> {
 protected:
  Problem problem_ = make_problem(64, 128, 16, /*seed=*/99);
};

TEST_P(DistFused, MatchesReference) {
  const auto cfg = GetParam();
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, problem_.s, problem_.a.cols());
  const auto result = plan.execute_fusedmm(
      cfg.orientation, cfg.elision, problem_.s, problem_.a, problem_.b);
  const auto expected =
      cfg.orientation == FusedOrientation::A
          ? reference_fusedmm_a(problem_.s, problem_.a, problem_.b)
          : reference_fusedmm_b(problem_.s, problem_.a, problem_.b);
  EXPECT_LT(rel_diff(result.output, expected), kTol);
}

TEST_P(DistFused, RepetitionsScaleCommunication) {
  const auto cfg = GetParam();
  if (cfg.p > 8) return; // keep the sweep fast
  const Plan plan =
      make_plan(cfg.kind, cfg.p, cfg.c, problem_.s, problem_.a.cols());
  const auto once = plan.execute_fusedmm(
      cfg.orientation, cfg.elision, problem_.s, problem_.a, problem_.b, 1);
  const auto thrice = plan.execute_fusedmm(
      cfg.orientation, cfg.elision, problem_.s, problem_.a, problem_.b, 3);
  for (const Phase phase : {Phase::Replication, Phase::Propagation}) {
    EXPECT_EQ(thrice.stats.max_words(phase), 3 * once.stats.max_words(phase))
        << to_string(phase);
  }
  // Output must be identical regardless of repetition count.
  EXPECT_LT(rel_diff(thrice.output, once.output), kTol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistFused,
                         ::testing::ValuesIn(fused_configs()), fused_name);

TEST(DistBaseline, SpmmAMatchesReference) {
  const auto problem = make_problem(64, 128, 16, 31);
  for (const int p : {1, 4, 8}) {
    const Plan plan =
        make_plan(AlgorithmKind::Baseline1D, p, 1, problem.s, problem.a.cols());
    const auto result =
        plan.execute(Mode::SpMMA, problem.s, problem.a, problem.b);
    const auto expected = reference_spmm_a(problem.s, problem.b);
    EXPECT_LT(rel_diff(result.dense, expected), kTol) << "p=" << p;
  }
}

TEST(DistBaseline, RejectsUnsupportedModes) {
  const auto problem = make_problem(16, 16, 4, 5);
  const Plan plan =
      make_plan(AlgorithmKind::Baseline1D, 4, 1, problem.s, problem.a.cols());
  EXPECT_THROW(plan.execute(Mode::SDDMM, problem.s, problem.a, problem.b),
               Error);
  EXPECT_THROW(plan.execute(Mode::SpMMB, problem.s, problem.a, problem.b),
               Error);
}

TEST(DistBaseline, FusedSurrogateCostsTwoSpmms) {
  const auto problem = make_problem(64, 128, 16, 31);
  const Plan plan =
      make_plan(AlgorithmKind::Baseline1D, 4, 1, problem.s, problem.a.cols());
  const auto kernel =
      plan.execute(Mode::SpMMA, problem.s, problem.a, problem.b);
  const auto fused =
      plan.execute_fusedmm(
          FusedOrientation::A, Elision::None, problem.s, problem.a, problem.b);
  EXPECT_EQ(fused.stats.max_words(Phase::Propagation),
            2 * kernel.stats.max_words(Phase::Propagation));
}

// ------------------------------------------------- replication modes

/// Replication plus propagation words of the critical rank.
std::uint64_t transport_words(const WorldStats& stats) {
  return stats.max_words(Phase::Replication) +
         stats.max_words(Phase::Propagation);
}

bool bit_identical(const DenseMatrix& x, const DenseMatrix& y) {
  if (!x.same_shape(y)) return false;
  const auto xs = x.data();
  const auto ys = y.data();
  if (xs.empty()) return true; // memcmp forbids null even with size 0
  return std::memcmp(xs.data(), ys.data(),
                     xs.size() * sizeof(Scalar)) == 0;
}

/// A power-law (R-MAT) instance: hub columns concentrate the support,
/// which is exactly where the sparse collectives beat the dense fiber
/// terms.
Problem make_rmat_problem(Index m, Index n, Index r, Index nnz,
                          std::uint64_t seed) {
  Rng rng(seed);
  Problem problem{rmat(m, n, nnz, rng), DenseMatrix(m, r),
                  DenseMatrix(n, r)};
  problem.a.fill_random(rng);
  problem.b.fill_random(rng);
  return problem;
}

TEST(ReplicationModes, BitIdenticalOutputsAcrossAllDrivers) {
  const auto problem = make_rmat_problem(128, 128, 32, 256, 2026);
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::DenseShift15D, 16, 4},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::SparseRepl25D, 8, 2},
      {AlgorithmKind::Baseline1D, 4, 1},
  };
  for (const auto& cfg : configs) {
    const auto run_mode = [&](ReplicationMode mode) {
      AlgorithmOptions options;
      options.replication = mode;
      const Plan plan = make_plan(cfg.kind, cfg.p, cfg.c, problem.s,
                                  problem.a.cols(), options);
      std::vector<KernelResult> kernels;
      std::vector<FusedResult> fused;
      if (cfg.kind == AlgorithmKind::Baseline1D) {
        kernels.push_back(
            plan.execute(Mode::SpMMA, problem.s, problem.a, problem.b));
        fused.push_back(plan.execute_fusedmm(FusedOrientation::A,
                                             Elision::None, problem.s,
                                             problem.a, problem.b));
        return std::pair(std::move(kernels), std::move(fused));
      }
      for (const Mode mode_k : {Mode::SpMMA, Mode::SpMMB, Mode::SDDMM}) {
        kernels.push_back(
            plan.execute(mode_k, problem.s, problem.a, problem.b));
      }
      // Every supported (orientation, elision) pair: orientation B and
      // the elisions exercise distinct replicate/reduce call sites.
      for (const auto orientation :
           {FusedOrientation::A, FusedOrientation::B}) {
        for (const auto elision :
             {Elision::None, Elision::ReplicationReuse,
              Elision::LocalKernelFusion}) {
          if (!supports(cfg.kind, elision)) continue;
          fused.push_back(plan.execute_fusedmm(orientation, elision,
                                               problem.s, problem.a,
                                               problem.b));
        }
      }
      return std::pair(std::move(kernels), std::move(fused));
    };
    const auto dense = run_mode(ReplicationMode::Dense);
    const auto got = run_mode(ReplicationMode::Auto);
    ASSERT_EQ(got.first.size(), dense.first.size());
    for (std::size_t k = 0; k < dense.first.size(); ++k) {
      EXPECT_TRUE(bit_identical(got.first[k].dense, dense.first[k].dense))
          << to_string(cfg.kind) << " kernel case " << k;
      EXPECT_EQ(got.first[k].sddmm_values, dense.first[k].sddmm_values)
          << to_string(cfg.kind) << " kernel case " << k;
    }
    ASSERT_EQ(got.second.size(), dense.second.size());
    for (std::size_t k = 0; k < dense.second.size(); ++k) {
      EXPECT_TRUE(
          bit_identical(got.second[k].output, dense.second[k].output))
          << to_string(cfg.kind) << " fused case " << k;
    }
    // The families with dense fiber collectives take the row-sparse plan
    // in every case on this instance.
    if (cfg.kind == AlgorithmKind::SparseRepl25D ||
        cfg.kind == AlgorithmKind::Baseline1D) {
      continue;
    }
    for (std::size_t k = 0; k < dense.first.size(); ++k) {
      EXPECT_LT(got.first[k].stats.max_words(Phase::Replication),
                dense.first[k].stats.max_words(Phase::Replication))
          << to_string(cfg.kind) << " kernel case " << k;
    }
    for (std::size_t k = 0; k < dense.second.size(); ++k) {
      EXPECT_LT(got.second[k].stats.max_words(Phase::Replication),
                dense.second[k].stats.max_words(Phase::Replication))
          << to_string(cfg.kind) << " fused case " << k;
    }
  }
}

/// The wire-codec cube: a fixed codec must produce IDENTICAL bits
/// regardless of schedule, replication mode, and propagation mode —
/// transport choices may change the words on the wire, never the
/// decoded values (quantization is per value and idempotent, so
/// re-forwarding and the sparse/dense crossovers all see the same
/// payloads). On this instance the Auto modes move fewer words than the
/// dense ones under every codec, so the sparse paths are in play. The
/// lossy codecs must also stay within their quantization error bounds of
/// the exact default-codec output.
TEST(WireCodecCube, BitIdenticalAcrossTransportChoicesPerCodec) {
  const auto problem = make_rmat_problem(128, 128, 32, 256, 7071);
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::SparseRepl25D, 8, 2},
  };
  const std::pair<WireCodec, Scalar> codec_cases[] = {
      {WireCodec{WirePrecision::Full}, kTol},
      {WireCodec{WirePrecision::F32}, 1e-4},
      {WireCodec{WirePrecision::BF16}, 5e-2},
  };
  for (const auto& cfg : configs) {
    const auto run = [&](const WireCodec& codec, ShiftSchedule schedule,
                         ReplicationMode repl, PropagationMode prop) {
      AlgorithmOptions options;
      options.schedule = schedule;
      options.replication = repl;
      options.propagation = prop;
      options.codec = codec;
      const Plan plan = make_plan(
          cfg.kind, cfg.p, cfg.c, problem.s, problem.a.cols(), options);
      return plan.execute_fusedmm(
          FusedOrientation::A, Elision::None, problem.s, problem.a, problem.b);
    };
    const auto exact = run(WireCodec{}, ShiftSchedule::DoubleBuffered,
                           ReplicationMode::Dense, PropagationMode::Dense);
    for (const auto& [codec, tol] : codec_cases) {
      const auto reference =
          run(codec, ShiftSchedule::DoubleBuffered, ReplicationMode::Dense,
              PropagationMode::Dense);
      EXPECT_LE(rel_diff(reference.output, exact.output), tol)
          << to_string(cfg.kind) << " " << to_string(codec.precision);
      for (const ShiftSchedule schedule :
           {ShiftSchedule::DoubleBuffered, ShiftSchedule::BulkSynchronous}) {
        for (const ReplicationMode repl :
             {ReplicationMode::Dense, ReplicationMode::Auto}) {
          for (const PropagationMode prop :
               {PropagationMode::Dense, PropagationMode::Auto}) {
            const auto got = run(codec, schedule, repl, prop);
            const auto label =
                to_string(cfg.kind) + " " + to_string(codec.precision) +
                " schedule " +
                std::to_string(static_cast<int>(schedule)) + " " +
                to_string(repl) + " " + to_string(prop);
            EXPECT_TRUE(bit_identical(got.output, reference.output))
                << label;
            if (repl == ReplicationMode::Auto &&
                prop == PropagationMode::Auto) {
              EXPECT_LT(transport_words(got.stats),
                        transport_words(reference.stats))
                  << label;
            }
          }
        }
      }
    }
  }
}

/// The compressed transports against the serial references: not just
/// mode-vs-mode identity (test_overlap pins that) but absolute
/// correctness of every kernel mode with the row-sparse collectives and
/// column-support hops in play.
TEST(CompressedTransport, KernelsMatchReference) {
  const auto problem = make_problem(64, 128, 16, /*seed=*/81);
  const auto want_a = reference_spmm_a(problem.s, problem.b);
  const auto want_b = reference_spmm_b(problem.s, problem.a);
  const auto want_f = reference_fusedmm_a(problem.s, problem.a, problem.b);
  const auto want_sddmm = reference_sddmm(problem.s, problem.a, problem.b);
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 4},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 16, 4},
      {AlgorithmKind::SparseRepl25D, 8, 2},
  };
  // Propagation compression rides along with each replication mode, so
  // the sweep also pins the column-support wire paths (and the
  // row-sparse reduce-scatter SpMMA ends with) against the serial
  // references. On this instance both pairs move fewer FusedMM words
  // than Dense/Dense in every family but 1.5D sparse shifting, whose
  // circulating triplets are already sparsity-sized and whose fiber
  // supports are dense enough that Auto keeps the ring.
  const std::pair<ReplicationMode, PropagationMode> mode_pairs[] = {
      {ReplicationMode::Dense, PropagationMode::Auto},
      {ReplicationMode::Auto, PropagationMode::Auto},
  };
  for (const auto& cfg : configs) {
    const auto dense_words = transport_words(
        make_plan(cfg.kind, cfg.p, cfg.c, problem.s, problem.a.cols())
            .execute_fusedmm(FusedOrientation::A, Elision::None, problem.s,
                             problem.a, problem.b)
            .stats);
    for (const auto& [mode, propagation] : mode_pairs) {
      AlgorithmOptions options;
      options.replication = mode;
      options.propagation = propagation;
      const Plan plan = make_plan(
          cfg.kind, cfg.p, cfg.c, problem.s, problem.a.cols(), options);
      EXPECT_LE(rel_diff(plan.execute(Mode::SpMMA, problem.s, problem.a,
                                      problem.b)
                             .dense,
                         want_a),
                kTol)
          << to_string(cfg.kind) << " " << to_string(mode);
      EXPECT_LE(rel_diff(plan.execute(Mode::SpMMB, problem.s, problem.a,
                                      problem.b)
                             .dense,
                         want_b),
                kTol)
          << to_string(cfg.kind) << " " << to_string(mode);
      const auto sddmm =
          plan.execute(Mode::SDDMM, problem.s, problem.a, problem.b);
      ASSERT_EQ(sddmm.sddmm_values.size(),
                static_cast<std::size_t>(want_sddmm.nnz()));
      for (Index k = 0; k < want_sddmm.nnz(); ++k) {
        EXPECT_NEAR(sddmm.sddmm_values[static_cast<std::size_t>(k)],
                    want_sddmm.entry(k).value, kTol)
            << to_string(cfg.kind) << " " << to_string(mode) << " entry "
            << k;
      }
      const auto fused = plan.execute_fusedmm(
          FusedOrientation::A, Elision::None, problem.s, problem.a, problem.b);
      EXPECT_LE(rel_diff(fused.output, want_f), kTol)
          << to_string(cfg.kind) << " " << to_string(mode);
      if (cfg.kind != AlgorithmKind::SparseShift15D) {
        EXPECT_LT(transport_words(fused.stats), dense_words)
            << to_string(cfg.kind) << " " << to_string(mode);
      }
    }
  }
}

TEST(ReplicationModes, AutoNeverMovesMoreReplicationWordsThanDense) {
  const auto er = make_problem(64, 128, 16, 55);
  const auto rm = make_rmat_problem(128, 128, 32, 256, 2027);
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::DenseShift15D, 16, 4},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::SparseShift15D, 16, 4},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 16, 4},
      {AlgorithmKind::SparseRepl25D, 8, 2},
  };
  for (const Problem* problem : {&er, &rm}) {
    for (const auto& cfg : configs) {
      const auto words = [&](ReplicationMode mode) {
        AlgorithmOptions options;
        options.replication = mode;
        const Plan plan = make_plan(
            cfg.kind, cfg.p, cfg.c, problem->s, problem->a.cols(), options);
        const auto result = plan.execute_fusedmm(FusedOrientation::A,
                                                 Elision::None, problem->s,
                                                 problem->a, problem->b);
        return result.stats.max_words(Phase::Replication);
      };
      EXPECT_LE(words(ReplicationMode::Auto),
                words(ReplicationMode::Dense))
          << to_string(cfg.kind) << " p=" << cfg.p << " c=" << cfg.c;
    }
  }
}

TEST(ReplicationModes, SparseRowsStrictlyCheaperOnPowerLawInstance) {
  // The acceptance instance: an R-MAT pattern leaves a large fraction of
  // each working block's rows untouched, so Auto ships only the support
  // rows and must move strictly fewer replication words than the dense
  // fibers — for every family with dense fiber collectives.
  const auto problem = make_rmat_problem(128, 128, 32, 256, 2028);
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 8, 2},
  };
  for (const auto& cfg : configs) {
    const auto words = [&](ReplicationMode mode) {
      AlgorithmOptions options;
      options.replication = mode;
      const Plan plan = make_plan(
          cfg.kind, cfg.p, cfg.c, problem.s, problem.a.cols(), options);
      const auto result =
          plan.execute_fusedmm(FusedOrientation::A, Elision::None, problem.s,
                               problem.a, problem.b);
      return result.stats.max_words(Phase::Replication);
    };
    EXPECT_LT(words(ReplicationMode::Auto), words(ReplicationMode::Dense))
        << to_string(cfg.kind);
  }
}

TEST(DistSetupGuards, UnpaddedProblemsFailWithActionableMessage) {
  // n < p (and m < the layer count): the shard functors would divide by
  // a zero block size; the families must reject the shape up front and
  // point at pad_problem.
  Rng rng(9);
  const auto s = erdos_renyi_fixed_row(6, 6, 2, rng);
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D,
        AlgorithmKind::Baseline1D}) {
    const int p = kind == AlgorithmKind::Baseline1D ? 8 : 16;
    const int c = kind == AlgorithmKind::Baseline1D ? 1 : 4;
    try {
      make_plan(kind, p, c, s, /*r=*/4);
      FAIL() << to_string(kind) << ": undersized problem was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("pad_problem"),
                std::string::npos)
          << to_string(kind) << ": " << e.what();
    }
  }
}

TEST(DistValidation, RejectsUnsupportedElision) {
  const auto problem = make_problem(64, 128, 16, 7);
  const Plan sparse_shift = make_plan(
      AlgorithmKind::SparseShift15D, 4, 2, problem.s, problem.a.cols());
  EXPECT_THROW(sparse_shift.execute_fusedmm(FusedOrientation::A,
                                            Elision::LocalKernelFusion,
                                            problem.s, problem.a, problem.b),
               Error);
  const Plan sparse_repl = make_plan(
      AlgorithmKind::SparseRepl25D, 4, 1, problem.s, problem.a.cols());
  EXPECT_THROW(sparse_repl.execute_fusedmm(FusedOrientation::B,
                                           Elision::ReplicationReuse,
                                           problem.s, problem.a, problem.b),
               Error);
  const Plan dense_repl =
      make_plan(AlgorithmKind::DenseRepl25D, 4, 1, problem.s, problem.a.cols());
  EXPECT_THROW(dense_repl.execute_fusedmm(FusedOrientation::A,
                                          Elision::LocalKernelFusion,
                                          problem.s, problem.a, problem.b),
               Error);
}

TEST(DistValidation, RejectsIndivisibleDims) {
  // m=60 is not divisible by p=8.
  const auto problem = make_problem(60, 120, 16, 7);
  EXPECT_THROW(make_plan(AlgorithmKind::DenseShift15D, 8, 2, problem.s,
                         problem.a.cols()),
               Error);
}

TEST(DistValidation, RejectsInvalidGrids) {
  EXPECT_FALSE(valid_config(AlgorithmKind::DenseShift15D, 6, 4));
  EXPECT_FALSE(valid_config(AlgorithmKind::DenseRepl25D, 8, 1));
  EXPECT_TRUE(valid_config(AlgorithmKind::DenseRepl25D, 8, 2));
  EXPECT_TRUE(valid_config(AlgorithmKind::SparseRepl25D, 12, 3)); // q=2
  EXPECT_FALSE(valid_config(AlgorithmKind::SparseRepl25D, 12, 2));
  const auto problem = make_problem(64, 128, 16, 7);
  EXPECT_THROW(make_plan(AlgorithmKind::DenseRepl25D, 8, 1, problem.s,
                         problem.a.cols()),
               Error);
}

TEST(DistValidation, RejectsUnsortedSparseInput) {
  CooMatrix s(8, 8);
  s.push_back(3, 3, 1.0);
  s.push_back(1, 1, 1.0); // out of order
  EXPECT_THROW(make_plan(AlgorithmKind::DenseShift15D, 4, 2, s, /*r=*/4),
               Error);
}

TEST(DistValidation, RejectsShapeMismatch) {
  const auto problem = make_problem(64, 128, 16, 7);
  DenseMatrix wrong_a(32, 16);
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, 4, 2, problem.s,
                              problem.a.cols());
  EXPECT_THROW(plan.execute(Mode::SpMMA, problem.s, wrong_a, problem.b),
               Error);
}

/// The empty-matrix edge case: algorithms must handle blocks with zero
/// nonzeros (some ranks own nothing).
TEST(DistEdgeCases, VerySparseMatrix) {
  Rng rng(1234);
  CooMatrix s(64, 128);
  s.push_back(0, 0, 2.0);
  s.push_back(63, 127, -1.0);
  DenseMatrix a(64, 16), b(128, 16);
  a.fill_random(rng);
  b.fill_random(rng);
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const Plan plan = make_plan(kind, 16, 4, s, a.cols());
    const auto result = plan.execute(Mode::SpMMA, s, a, b);
    EXPECT_LT(rel_diff(result.dense, reference_spmm_a(s, b)), kTol)
        << to_string(kind);
  }
}

TEST(DistEdgeCases, WideAndTallAspects) {
  // Flip the aspect ratio (m > n) to catch any m/n mix-ups that the
  // main sweep's m < n problems would miss.
  const auto problem = make_problem(128, 32, 16, 41, /*nnz_per_row=*/2);
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const Plan plan = make_plan(kind, 8, 2, problem.s, problem.a.cols());
    const auto spmm =
        plan.execute(Mode::SpMMB, problem.s, problem.a, problem.b);
    EXPECT_LT(rel_diff(spmm.dense, reference_spmm_b(problem.s, problem.a)),
              kTol)
        << to_string(kind);
    const auto fused = plan.execute_fusedmm(
        FusedOrientation::B, Elision::None, problem.s, problem.a, problem.b);
    EXPECT_LT(rel_diff(fused.output,
                       reference_fusedmm_b(problem.s, problem.a, problem.b)),
              kTol)
        << to_string(kind);
  }
}

TEST(DistEdgeCases, WidthOneEmbeddings) {
  // r = 1 (SpMV-like): valid for the dense-shifting family, which has no
  // r divisibility constraint.
  const auto problem = make_problem(64, 128, 1, 43);
  const Plan plan = make_plan(
      AlgorithmKind::DenseShift15D, 8, 2, problem.s, problem.a.cols());
  const auto result = plan.execute_fusedmm(FusedOrientation::A,
                                           Elision::LocalKernelFusion,
                                           problem.s, problem.a, problem.b);
  EXPECT_LT(rel_diff(result.output,
                     reference_fusedmm_a(problem.s, problem.a, problem.b)),
            kTol);
}

TEST(DistEdgeCases, SingleRankAllAlgorithms) {
  const auto problem = make_problem(16, 32, 8, 55);
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D,
        AlgorithmKind::Baseline1D}) {
    const Plan plan = make_plan(kind, 1, 1, problem.s, problem.a.cols());
    const auto result =
        plan.execute(Mode::SpMMA, problem.s, problem.a, problem.b);
    EXPECT_LT(rel_diff(result.dense, reference_spmm_a(problem.s, problem.b)),
              kTol)
        << to_string(kind);
    // One rank, zero communication.
    EXPECT_EQ(result.stats.max_words(Phase::Replication), 0u);
    EXPECT_EQ(result.stats.max_words(Phase::Propagation), 0u);
  }
}

} // namespace
} // namespace dsk
