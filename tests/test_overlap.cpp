/// Regression tests for the double-buffered propagation schedule: the
/// overlapping and bulk-synchronous schedules must produce bit-identical
/// outputs and identical word counts (only waiting time moves), and a
/// rank failing mid-shift must abort the world — the posted receives on
/// its peers unblock with an error instead of deadlocking.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "dist/problem.hpp"
#include "dist/shift_loop.hpp"
#include "runtime/world.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

struct Problem {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

/// Power-law (R-MAT) problem with `per_row` nonzeros per row: hub rows
/// make the shards as unbalanced as the schedules will ever see, so any
/// schedule-dependent arithmetic would show up here.
Problem make_rmat_problem(Index m, Index n, Index r, std::uint64_t seed,
                          Index per_row = 6) {
  Rng rng(seed);
  Problem p{rmat(m, n, per_row * m, rng), DenseMatrix(m, r),
            DenseMatrix(n, r)};
  p.a.fill_random(rng);
  p.b.fill_random(rng);
  return p;
}

TEST(Overlap, SchedulesAreBitIdentical) {
  const auto raw = make_rmat_problem(96, 48, 16, 2024);
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const int p = 8, c = 2;
    const auto padded = pad_problem(kind, p, c, raw.s, raw.a, raw.b);
    AlgorithmOptions bulk{ShiftSchedule::BulkSynchronous};
    auto bulk_algo = make_algorithm(kind, p, c, bulk);
    const auto fused_bulk = bulk_algo->run_fusedmm(
        FusedOrientation::B, Elision::None, padded.s, padded.a, padded.b);
    const auto spmm_bulk = bulk_algo->run_kernel(Mode::SpMMA, padded.s,
                                                 padded.a, padded.b);
    AlgorithmOptions overlapped{ShiftSchedule::DoubleBuffered};
    auto algo = make_algorithm(kind, p, c, overlapped);
    const auto fused = algo->run_fusedmm(FusedOrientation::B, Elision::None,
                                         padded.s, padded.a, padded.b);
    // Bit-identical: the schedules run the same local kernels on the
    // same blocks in the same order; zero tolerance.
    EXPECT_EQ(fused_bulk.output.max_abs_diff(fused.output), 0.0)
        << to_string(kind);
    for (const Phase phase : {Phase::Replication, Phase::Propagation}) {
      EXPECT_EQ(fused_bulk.stats.max_words(phase),
                fused.stats.max_words(phase))
          << to_string(kind) << " " << to_string(phase);
      EXPECT_EQ(fused_bulk.stats.max_messages(phase),
                fused.stats.max_messages(phase))
          << to_string(kind) << " " << to_string(phase);
    }
    const auto spmm =
        algo->run_kernel(Mode::SpMMA, padded.s, padded.a, padded.b);
    EXPECT_EQ(spmm_bulk.dense.max_abs_diff(spmm.dense), 0.0)
        << to_string(kind);
  }
}

/// The acceptance cube for the row- and column-support collectives: on
/// all five drivers, every
/// {schedule} x {replication} x {propagation} combination must
/// reproduce the BSP/Dense/Dense outputs bit for bit. Words move only
/// where an Auto mode says so: Dense keeps the exact Table III words of
/// the reference, and Auto never exceeds them (the per-group and
/// per-hop crossovers make that unconditional). On this instance both
/// Auto modes together move strictly fewer words in every family but
/// the 1D baseline, whose fetches are support-sized already.
TEST(Overlap, ScheduleReplicationPropagationCubeBitIdentical) {
  const auto raw = make_rmat_problem(96, 48, 16, 2026);
  struct Config {
    AlgorithmKind kind;
    int p;
    int c;
  };
  const std::vector<Config> configs = {
      {AlgorithmKind::DenseShift15D, 8, 2},
      {AlgorithmKind::SparseShift15D, 8, 2},
      {AlgorithmKind::DenseRepl25D, 8, 2},
      {AlgorithmKind::SparseRepl25D, 8, 2},
      {AlgorithmKind::Baseline1D, 4, 1},
  };
  for (const auto& cfg : configs) {
    const auto padded =
        pad_problem(cfg.kind, cfg.p, cfg.c, raw.s, raw.a, raw.b);
    const auto orientation = cfg.kind == AlgorithmKind::Baseline1D
                                 ? FusedOrientation::A
                                 : FusedOrientation::B;
    AlgorithmOptions reference_options;
    reference_options.schedule = ShiftSchedule::BulkSynchronous;
    auto reference =
        make_algorithm(cfg.kind, cfg.p, cfg.c, reference_options);
    const auto want = reference->run_fusedmm(
        orientation, Elision::None, padded.s, padded.a, padded.b);
    const auto want_spmm = reference->run_kernel(Mode::SpMMA, padded.s,
                                                 padded.a, padded.b);
    for (const ShiftSchedule schedule :
         {ShiftSchedule::BulkSynchronous, ShiftSchedule::DoubleBuffered}) {
      for (const ReplicationMode replication :
           {ReplicationMode::Dense, ReplicationMode::Auto}) {
        for (const PropagationMode propagation :
             {PropagationMode::Dense, PropagationMode::Auto}) {
          AlgorithmOptions options;
          options.schedule = schedule;
          options.replication = replication;
          options.propagation = propagation;
          auto algo = make_algorithm(cfg.kind, cfg.p, cfg.c, options);
          const auto label = to_string(cfg.kind) + " " +
                             to_string(replication) + " " +
                             to_string(propagation);
          const auto fused = algo->run_fusedmm(
              orientation, Elision::None, padded.s, padded.a, padded.b);
          EXPECT_EQ(want.output.max_abs_diff(fused.output), 0.0) << label;
          // SpMM-A exercises the row-sparse reduce-scatter and the
          // compressed read-only channels together.
          const auto spmm = algo->run_kernel(Mode::SpMMA, padded.s,
                                             padded.a, padded.b);
          EXPECT_EQ(want_spmm.dense.max_abs_diff(spmm.dense), 0.0)
              << label;
          const std::pair<const WorldStats*, const WorldStats*> pairs[] = {
              {&want.stats, &fused.stats},
              {&want_spmm.stats, &spmm.stats}};
          for (const auto& [reference_stats, got_stats] : pairs) {
            if (propagation == PropagationMode::Dense) {
              EXPECT_EQ(reference_stats->max_words(Phase::Propagation),
                        got_stats->max_words(Phase::Propagation))
                  << label;
            } else {
              EXPECT_LE(got_stats->max_words(Phase::Propagation),
                        reference_stats->max_words(Phase::Propagation))
                  << label;
            }
            if (replication == ReplicationMode::Dense) {
              EXPECT_EQ(reference_stats->max_words(Phase::Replication),
                        got_stats->max_words(Phase::Replication))
                  << label;
            } else {
              EXPECT_LE(got_stats->max_words(Phase::Replication),
                        reference_stats->max_words(Phase::Replication))
                  << label;
            }
            if (replication == ReplicationMode::Auto &&
                propagation == PropagationMode::Auto &&
                cfg.kind != AlgorithmKind::Baseline1D) {
              EXPECT_LT(got_stats->max_words(Phase::Replication) +
                            got_stats->max_words(Phase::Propagation),
                        reference_stats->max_words(Phase::Replication) +
                            reference_stats->max_words(Phase::Propagation))
                  << label;
            }
          }
        }
      }
    }
  }
}

/// SDDMM and SpMM-B under Auto propagation, the mode that stresses the
/// mutating-accumulator direction (prefix unions) and the circulating-dot
/// payloads, against the dense double-buffered reference outputs — run
/// bulk-synchronously, so the comparison also crosses schedules. Two
/// inputs: the rectangular one, on which Auto leaves some hops (all of
/// DenseShift15D's SpMM-B) dense, and a sparser square one on which Auto
/// compresses every kernel of the three families with dense circulating
/// blocks, which the test checks by their propagation words.
TEST(Overlap, SparsePropagationKernelsBitIdentical) {
  const struct {
    Problem raw;
    bool compresses_all;
  } inputs[] = {{make_rmat_problem(96, 48, 16, 2027), false},
                {make_rmat_problem(128, 128, 32, 2026, 2), true}};
  for (const auto& input : inputs) {
    for (const auto kind :
         {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
          AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
      const auto& raw = input.raw;
      const auto padded = pad_problem(kind, 8, 2, raw.s, raw.a, raw.b);
      auto dense = make_algorithm(kind, 8, 2);
      AlgorithmOptions options;
      options.propagation = PropagationMode::Auto;
      options.schedule = ShiftSchedule::BulkSynchronous;
      options.replication = ReplicationMode::Auto;
      auto algo = make_algorithm(kind, 8, 2, options);
      for (const Mode mode : {Mode::SpMMB, Mode::SDDMM}) {
        const auto want =
            dense->run_kernel(mode, padded.s, padded.a, padded.b);
        const auto got =
            algo->run_kernel(mode, padded.s, padded.a, padded.b);
        const auto label = to_string(kind) + " " + to_string(mode) + " " +
                           std::to_string(raw.s.rows()) + "x" +
                           std::to_string(raw.s.cols());
        EXPECT_EQ(want.dense.max_abs_diff(got.dense), 0.0) << label;
        ASSERT_EQ(want.sddmm_values.size(), got.sddmm_values.size());
        for (std::size_t k = 0; k < want.sddmm_values.size(); ++k) {
          EXPECT_EQ(want.sddmm_values[k], got.sddmm_values[k])
              << label << " entry " << k;
        }
        if (input.compresses_all && kind != AlgorithmKind::SparseShift15D) {
          EXPECT_LT(got.stats.max_words(Phase::Propagation),
                    want.stats.max_words(Phase::Propagation))
              << label;
        }
      }
    }
  }
}

/// SDDMM dot accumulation (circulating or stationary, per family) must
/// be bit-identical across the two schedules on every replicating
/// family under the given replication plan.
void expect_sddmm_values_schedule_invariant(const Problem& raw,
                                            ReplicationMode replication) {
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const auto padded = pad_problem(kind, 8, 2, raw.s, raw.a, raw.b);
    AlgorithmOptions bulk_options;
    bulk_options.schedule = ShiftSchedule::BulkSynchronous;
    bulk_options.replication = replication;
    AlgorithmOptions buffered_options = bulk_options;
    buffered_options.schedule = ShiftSchedule::DoubleBuffered;
    auto bulk = make_algorithm(kind, 8, 2, bulk_options);
    auto buffered = make_algorithm(kind, 8, 2, buffered_options);
    const auto lhs =
        bulk->run_kernel(Mode::SDDMM, padded.s, padded.a, padded.b);
    const auto rhs =
        buffered->run_kernel(Mode::SDDMM, padded.s, padded.a, padded.b);
    ASSERT_EQ(lhs.sddmm_values.size(), rhs.sddmm_values.size());
    for (std::size_t k = 0; k < lhs.sddmm_values.size(); ++k) {
      EXPECT_EQ(lhs.sddmm_values[k], rhs.sddmm_values[k])
          << to_string(kind) << " " << to_string(replication) << " entry "
          << k;
    }
  }
}

TEST(Overlap, SddmmValuesBitIdenticalAcrossSchedules) {
  expect_sddmm_values_schedule_invariant(make_rmat_problem(64, 128, 8, 77),
                                         ReplicationMode::Dense);
}

/// The row-sparse replication plan gathers only the rows each shard
/// touches; the double-buffered SDDMM values must still match the
/// bulk-synchronous ones bit for bit.
TEST(Overlap, DoubleBufferedSddmmValuesBitIdentical) {
  expect_sddmm_values_schedule_invariant(make_rmat_problem(64, 128, 8, 78),
                                         ReplicationMode::Auto);
}

/// A rank that throws between its (posted) send and its receive must
/// abort the whole world: the peers' blocking receives unblock with an
/// error instead of waiting forever for a message that will never come.
TEST(Overlap, RankThrowingMidShiftAbortsWorld) {
  try {
    run_spmd(4, [](Comm& comm) {
      const std::vector<int> ring{0, 1, 2, 3};
      ShiftChannel ch = ring_channel(ring, comm.rank(), kTagShift,
                                     /*mutates=*/false,
                                     MessageWords(64, 7));
      run_shift_loop(comm, ShiftSchedule::DoubleBuffered, 4, {&ch, 1},
                     [&](int step) {
                       if (comm.rank() == 2 && step == 1) {
                         fail("injected failure mid-shift");
                       }
                     });
    });
    FAIL() << "expected the injected failure to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure"),
              std::string::npos)
        << e.what();
  }
}

/// Same, bulk-synchronous: the failing rank dies before the step's
/// barrier, which must not strand the others.
TEST(Overlap, RankThrowingMidShiftAbortsBulkWorld) {
  EXPECT_THROW(
      run_spmd(3, [](Comm& comm) {
        const std::vector<int> ring{0, 1, 2};
        ShiftChannel ch = ring_channel(ring, comm.rank(), kTagShift,
                                       /*mutates=*/true,
                                       MessageWords(8, 1));
        run_shift_loop(comm, ShiftSchedule::BulkSynchronous, 3, {&ch, 1},
                       [&](int step) {
                         if (comm.rank() == 0 && step == 2) {
                           fail("dead rank");
                         }
                       });
      }),
      Error);
}

/// The measured spans recorded by PhaseScope: every distributed run
/// reports positive propagation and computation wall-clock on some rank,
/// and the per-phase spans are exposed through WorldStats.
TEST(Overlap, MeasuredSpansAreRecorded) {
  const auto raw = make_rmat_problem(64, 64, 8, 99);
  const auto padded = pad_problem(AlgorithmKind::DenseShift15D, 4, 2,
                                  raw.s, raw.a, raw.b);
  auto algo = make_algorithm(AlgorithmKind::DenseShift15D, 4, 2);
  const auto result = algo->run_fusedmm(FusedOrientation::A, Elision::None,
                                        padded.s, padded.a, padded.b);
  EXPECT_GT(result.stats.measured_phase_seconds(Phase::Propagation), 0.0);
  EXPECT_GT(result.stats.measured_phase_seconds(Phase::Computation), 0.0);
  EXPECT_GE(result.stats.measured_kernel_seconds(),
            result.stats.measured_phase_seconds(Phase::Computation));
}

} // namespace
} // namespace dsk
