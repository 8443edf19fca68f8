/// Fault-injection and recovery tests: pinned envelope faults with exact
/// retry-counter assertions, cost-accounting invariance under message
/// faults, rank-crash recovery sweeps over every driver family
/// (bit-identical output and the clean run's per-phase traffic after
/// replica reconstruction or checkpoint restore and a re-run of the
/// whole call), checkpoint-store unit coverage including
/// the disk backend, graceful shrink-and-replan degradation, fault-plan
/// grammar hardening with an exact replay round trip, and a randomized
/// soak across every driver that prints a deterministic replay string on
/// failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/world.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

// ---------------------------------------------------------------------
// Pinned envelope faults: one targeted fault on a known (src, dst, tag,
// seq), with exact assertions on the retry counters that healing leaves
// behind. Sends happen strictly before the receive (barrier-sequenced)
// so the counter totals are deterministic.
// ---------------------------------------------------------------------

WorldStats run_pinned(const FaultPlan& plan, int ranks,
                      const std::function<void(Comm&)>& body) {
  SimWorld world(ranks);
  return world.run(body, WorldOptions{&plan, {}, 0});
}

TEST(FaultEnvelope, DroppedMessageHealsByTimeoutAndRetransmit) {
  FaultPlan plan;
  plan.timeout_ms = 5;
  plan.messages.push_back({FaultKind::Drop, 1, 0, kTagUser, 0});
  const WorldStats stats = run_pinned(plan, 2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{42.0});
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv<Scalar>(1, kTagUser).at(0), 42.0);
    }
  });
  const RetryCounters& retry = stats.rank(0).retry();
  EXPECT_EQ(retry.timeouts, 1u);
  EXPECT_EQ(retry.nacks, 1u);
  EXPECT_EQ(retry.retransmits, 1u);
  EXPECT_EQ(retry.retry_words, 3u); // 1 payload word + seq + checksum
  EXPECT_EQ(retry.corrupt_dropped, 0u);
  EXPECT_EQ(retry.duplicates_dropped, 0u);
  // The envelope header is charged on the sender.
  EXPECT_EQ(stats.rank(1).retry().envelope_words, 2u);
}

TEST(FaultEnvelope, CorruptedMessageFailsChecksumAndRetransmits) {
  FaultPlan plan;
  plan.timeout_ms = 5000; // never reached: the corrupt copy arrives
  plan.messages.push_back({FaultKind::Corrupt, 1, 0, kTagUser, 0});
  const WorldStats stats = run_pinned(plan, 2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{7.0, 8.0});
    }
    comm.barrier();
    if (comm.rank() == 0) {
      const auto got = comm.recv<Scalar>(1, kTagUser);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], 7.0);
      EXPECT_EQ(got[1], 8.0);
    }
  });
  const RetryCounters& retry = stats.rank(0).retry();
  EXPECT_EQ(retry.corrupt_dropped, 1u);
  EXPECT_EQ(retry.nacks, 1u);
  EXPECT_EQ(retry.retransmits, 1u);
  EXPECT_EQ(retry.timeouts, 0u);
}

TEST(FaultEnvelope, DuplicateIsDroppedBySequenceCheck) {
  FaultPlan plan;
  plan.timeout_ms = 5000;
  plan.messages.push_back({FaultKind::Duplicate, 1, 0, kTagUser, 0});
  const WorldStats stats = run_pinned(plan, 2, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{1.0});
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{2.0});
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv<Scalar>(1, kTagUser).at(0), 1.0);
      EXPECT_EQ(comm.recv<Scalar>(1, kTagUser).at(0), 2.0);
    }
  });
  const RetryCounters& retry = stats.rank(0).retry();
  EXPECT_EQ(retry.duplicates_dropped, 1u);
  EXPECT_EQ(retry.retransmits, 0u);
  EXPECT_EQ(retry.timeouts, 0u);
  EXPECT_EQ(retry.nacks, 0u);
}

TEST(FaultEnvelope, DelayedMessageIsReorderedAndResequenced) {
  FaultPlan plan;
  plan.timeout_ms = 5000;
  plan.messages.push_back({FaultKind::Delay, 1, 0, kTagUser, 0});
  const WorldStats stats = run_pinned(plan, 2, [](Comm& comm) {
    if (comm.rank() == 1) {
      // Seq 0 is parked until seq 1 overtakes it on the wire; the
      // receiver must still observe program order.
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{1.0});
      comm.send<Scalar>(0, kTagUser, std::vector<Scalar>{2.0});
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv<Scalar>(1, kTagUser).at(0), 1.0);
      EXPECT_EQ(comm.recv<Scalar>(1, kTagUser).at(0), 2.0);
    }
  });
  const RetryCounters& retry = stats.rank(0).retry();
  EXPECT_EQ(retry.reordered, 1u);
  EXPECT_EQ(retry.timeouts, 0u);
  EXPECT_EQ(retry.nacks, 0u);
  EXPECT_EQ(retry.retransmits, 0u);
  EXPECT_EQ(retry.duplicates_dropped, 0u);
}

TEST(FaultEnvelope, ReplayStringRoundTrips) {
  const std::string spec =
      "seed=7,drop=0.05,corrupt=0.02,timeout_ms=50,crash=3@step:1,"
      "msg=drop:1->0:0:0";
  const FaultPlan plan = parse_fault_plan(spec);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.timeout_ms, 50);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 3);
  EXPECT_EQ(plan.crashes[0].step, 1);
  ASSERT_EQ(plan.messages.size(), 1u);
  EXPECT_EQ(plan.messages[0].kind, FaultKind::Drop);
  // The replay string parses back to an identical plan.
  const FaultPlan round = parse_fault_plan(to_replay_string(plan));
  EXPECT_EQ(to_replay_string(round), to_replay_string(plan));
}

// ---------------------------------------------------------------------
// Distributed drivers under faults. One shared problem whose dimensions
// divide every grid under test (p up to 8, qc up to 4).
// ---------------------------------------------------------------------

struct Problem {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

Problem make_problem(Index m, Index n, Index r, std::uint64_t seed) {
  Rng rng(seed);
  Problem problem{erdos_renyi_fixed_row(m, n, /*nnz_per_row=*/4, rng),
                  DenseMatrix(m, r), DenseMatrix(n, r)};
  problem.a.fill_random(rng);
  problem.b.fill_random(rng);
  return problem;
}

KernelResult run_kernel_opts(AlgorithmKind kind, int p, int c, Mode mode,
                             const Problem& pr,
                             const AlgorithmOptions& options) {
  const Plan plan = make_plan(kind, p, c, pr.s, pr.a.cols(), options);
  return plan.execute(mode, pr.s, pr.a, pr.b);
}

KernelResult run_kernel_with(AlgorithmKind kind, int p, int c, Mode mode,
                             const Problem& pr, const FaultPlan* plan) {
  AlgorithmOptions options;
  options.faults = plan;
  return run_kernel_opts(kind, p, c, mode, pr, options);
}

bool all_zero(const RetryCounters& retry) {
  return retry.envelope_words == 0 && retry.timeouts == 0 &&
         retry.nacks == 0 && retry.retransmits == 0 &&
         retry.retry_words == 0 && retry.duplicates_dropped == 0 &&
         retry.corrupt_dropped == 0 && retry.reordered == 0;
}

/// The healed run's output matches the clean one bit for bit, its
/// per-phase word and message maxima are identical, and its envelopes
/// were paid for (fault mode really carried the traffic).
void expect_faults_invisible(const DenseMatrix& clean_out,
                             const WorldStats& clean,
                             const DenseMatrix& faulty_out,
                             const WorldStats& faulty) {
  EXPECT_TRUE(all_zero(clean.total_retry()));
  EXPECT_EQ(faulty_out.max_abs_diff(clean_out), 0.0);
  for (const Phase phase :
       {Phase::Replication, Phase::Propagation, Phase::Computation,
        Phase::Other}) {
    EXPECT_EQ(faulty.max_words(phase), clean.max_words(phase));
    EXPECT_EQ(faulty.max_messages(phase), clean.max_messages(phase));
  }
  EXPECT_GT(faulty.total_retry().envelope_words, 0u);
}

/// A recovered run re-runs the whole call, so the stats of its last
/// attempt carry the clean run's per-phase maxima.
void expect_clean_traffic(const WorldStats& got, const WorldStats& clean) {
  for (const Phase phase : {Phase::Replication, Phase::Propagation}) {
    EXPECT_EQ(got.max_words(phase), clean.max_words(phase))
        << to_string(phase);
    EXPECT_EQ(got.max_messages(phase), clean.max_messages(phase))
        << to_string(phase);
  }
}

TEST(FaultTolerance, MessageFaultsAreInvisibleToCostAccounting) {
  // Retry traffic lives in its own counters: the per-phase word and
  // message maxima the cost-model gates pin must be identical with and
  // without injected message faults, and the healed output bit-exact.
  const Problem pr = make_problem(32, 48, 8, 11);
  const FaultPlan plan = parse_fault_plan(
      "seed=3,drop=0.05,dup=0.02,corrupt=0.02,delay=0.02,timeout_ms=10");
  {
    SCOPED_TRACE("2.5D dense-replicating SpMMA");
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, nullptr);
    const KernelResult faulty = run_kernel_with(
        AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, &plan);
    expect_faults_invisible(clean.dense, clean.stats, faulty.dense,
                            faulty.stats);
  }
  {
    // The fused dense-shift ring: blocks that travel as their own
    // storage fault-free go encoded through the envelopes here.
    SCOPED_TRACE("1.5D dense-shift fused FusedMM-A");
    const auto fused = [&](const FaultPlan* faults) {
      AlgorithmOptions options;
      options.faults = faults;
      return make_plan(AlgorithmKind::DenseShift15D, 8, 2, pr.s, pr.a.cols(),
                       options)
          .execute_fusedmm(FusedOrientation::A, Elision::LocalKernelFusion,
                           pr.s, pr.a, pr.b);
    };
    const FusedResult clean = fused(nullptr);
    const FusedResult faulty = fused(&plan);
    expect_faults_invisible(clean.output, clean.stats, faulty.output,
                            faulty.stats);
  }
  {
    SCOPED_TRACE("1.5D dense-shift SpMMB (accumulator ring)");
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMB, pr, nullptr);
    const KernelResult faulty = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMB, pr, &plan);
    expect_faults_invisible(clean.dense, clean.stats, faulty.dense,
                            faulty.stats);
  }
}

TEST(FaultTolerance, DenseReplCrashSweepRecoversBitIdentically) {
  // Crash every rank at every shift step of the 2.5D dense-replicating
  // SpMMA: the surviving replicas reconstruct the lost shard, the call
  // re-runs, and the output stays bit-identical.
  const Problem pr = make_problem(32, 48, 8, 13);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, nullptr);
  for (int rank = 0; rank < 8; ++rank) {
    for (int step : {0, 1}) {
      FaultPlan plan;
      CrashSpec spec;
      spec.rank = rank;
      spec.step = step;
      plan.crashes.push_back(spec);
      const KernelResult got = run_kernel_with(
          AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, &plan);
      EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
          << "crash=" << rank << "@step:" << step;
      EXPECT_EQ(got.stats.recoveries(), 1)
          << "crash=" << rank << "@step:" << step;
    }
  }
}

TEST(FaultTolerance, SparseReplCrashSweepRecoversBitIdentically) {
  const Problem pr = make_problem(32, 48, 8, 13);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::SparseRepl25D, 8, 2, Mode::SDDMM, pr, nullptr);
  ASSERT_FALSE(clean.sddmm_values.empty());
  for (int rank = 0; rank < 8; ++rank) {
    for (int step : {0, 1}) {
      FaultPlan plan;
      CrashSpec spec;
      spec.rank = rank;
      spec.step = step;
      plan.crashes.push_back(spec);
      const KernelResult got = run_kernel_with(
          AlgorithmKind::SparseRepl25D, 8, 2, Mode::SDDMM, pr, &plan);
      EXPECT_EQ(got.sddmm_values, clean.sddmm_values)
          << "crash=" << rank << "@step:" << step;
      EXPECT_EQ(got.stats.recoveries(), 1)
          << "crash=" << rank << "@step:" << step;
    }
  }
}

TEST(FaultTolerance, BspCrashMidRingReportsCleanTraffic) {
  // Under the bulk-synchronous schedule a crash after completed shift
  // steps still heals by one full re-run: the output is bit-identical
  // and the run reports exactly the clean run's per-phase words and
  // messages, whichever steps the crashed attempt finished.
  struct Case {
    AlgorithmKind kind;
    std::uint64_t seed;
    const char* crash;
  };
  for (const Case& cs :
       {Case{AlgorithmKind::DenseRepl25D, 29, "crash=3@step:1"},
        Case{AlgorithmKind::DenseShift15D, 31, "crash=3@step:3"}}) {
    SCOPED_TRACE(to_string(cs.kind) + " " + cs.crash);
    const Problem pr = make_problem(32, 48, 8, cs.seed);
    AlgorithmOptions base;
    base.schedule = ShiftSchedule::BulkSynchronous;
    const KernelResult clean =
        run_kernel_opts(cs.kind, 8, 2, Mode::SpMMA, pr, base);
    const FaultPlan plan = parse_fault_plan(cs.crash);
    AlgorithmOptions options = base;
    options.faults = &plan;
    const KernelResult got =
        run_kernel_opts(cs.kind, 8, 2, Mode::SpMMA, pr, options);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
    expect_clean_traffic(got.stats, clean.stats);
  }
}

TEST(FaultTolerance, CrashDuringReplicationPhaseRecovers) {
  // Comm-op triggers in the replication phase crash before the first
  // shift step; the re-run heals them like any other crash.
  const Problem pr = make_problem(32, 48, 8, 13);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, nullptr);
  const FaultPlan plan = parse_fault_plan("crash=5@repl:1");
  const KernelResult got = run_kernel_with(AlgorithmKind::DenseRepl25D, 8,
                                           2, Mode::SpMMA, pr, &plan);
  EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0);
  EXPECT_EQ(got.stats.recoveries(), 1);
}

TEST(FaultTolerance, FusedMmCrashRecoversBitIdentically) {
  const Problem pr = make_problem(32, 48, 8, 15);
  {
    const AlgorithmOptions base;
    const Plan algo =
        make_plan(AlgorithmKind::DenseRepl25D, 8, 2, pr.s, pr.a.cols(), base);
    const FusedResult clean = algo.execute_fusedmm(
        FusedOrientation::A, Elision::None, pr.s, pr.a, pr.b, 2);
    const FaultPlan plan = parse_fault_plan("crash=6@step:1");
    AlgorithmOptions options;
    options.faults = &plan;
    const Plan faulty = make_plan(
        AlgorithmKind::DenseRepl25D, 8, 2, pr.s, pr.a.cols(), options);
    const FusedResult got = faulty.execute_fusedmm(
        FusedOrientation::A, Elision::None, pr.s, pr.a, pr.b, 2);
    EXPECT_EQ(got.output.max_abs_diff(clean.output), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
  {
    const AlgorithmOptions base;
    const Plan algo =
        make_plan(AlgorithmKind::SparseRepl25D, 8, 2, pr.s, pr.a.cols(), base);
    const FusedResult clean = algo.execute_fusedmm(
        FusedOrientation::B, Elision::None, pr.s, pr.a, pr.b, 1);
    const FaultPlan plan = parse_fault_plan("crash=1@step:1");
    AlgorithmOptions options;
    options.faults = &plan;
    const Plan faulty = make_plan(
        AlgorithmKind::SparseRepl25D, 8, 2, pr.s, pr.a.cols(), options);
    const FusedResult got = faulty.execute_fusedmm(
        FusedOrientation::B, Elision::None, pr.s, pr.a, pr.b, 1);
    EXPECT_EQ(got.output.max_abs_diff(clean.output), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
}

/// One crash through every supported (family, entry point) under the
/// transport `options`: the three kernels of each grid family, the
/// baseline's SpMMA, and every FusedMM orientation x elision the family
/// admits. `message_faults` (fault-plan entries, possibly empty) rides
/// along with each crash. Each run must heal with exactly one recovery,
/// match the clean run bit for bit and report its per-phase traffic.
void expect_every_entry_point_heals(const Problem& pr,
                                    const AlgorithmOptions& options,
                                    const std::string& message_faults) {
  struct Family {
    AlgorithmKind kind;
    int p;
    int c;
    const char* crash;
  };
  const Family families[] = {
      {AlgorithmKind::DenseShift15D, 8, 2, "crash=3@step:1"},
      {AlgorithmKind::SparseShift15D, 8, 2, "crash=3@step:1"},
      {AlgorithmKind::DenseRepl25D, 8, 2, "crash=3@step:1"},
      {AlgorithmKind::SparseRepl25D, 8, 2, "crash=3@step:1"},
      {AlgorithmKind::Baseline1D, 4, 1, "crash=1@any:0"},
  };
  int kernel_cases = 0;
  int fused_cases = 0;
  for (const Family& f : families) {
    const FaultPlan plan = parse_fault_plan(message_faults + f.crash);
    AlgorithmOptions faulty_options = options;
    faulty_options.faults = &plan;
    const Plan clean = make_plan(f.kind, f.p, f.c, pr.s, pr.a.cols(), options);
    const Plan faulty =
        make_plan(f.kind, f.p, f.c, pr.s, pr.a.cols(), faulty_options);
    for (const Mode mode : {Mode::SDDMM, Mode::SpMMA, Mode::SpMMB}) {
      if (f.kind == AlgorithmKind::Baseline1D && mode != Mode::SpMMA) {
        continue;
      }
      SCOPED_TRACE(to_string(f.kind) + " " + to_string(mode));
      const KernelResult want = clean.execute(mode, pr.s, pr.a, pr.b);
      const KernelResult got = faulty.execute(mode, pr.s, pr.a, pr.b);
      EXPECT_EQ(got.dense.max_abs_diff(want.dense), 0.0);
      EXPECT_EQ(got.sddmm_values, want.sddmm_values);
      EXPECT_EQ(got.stats.recoveries(), 1);
      expect_clean_traffic(got.stats, want.stats);
      ++kernel_cases;
    }
    for (const FusedOrientation orientation :
         {FusedOrientation::A, FusedOrientation::B}) {
      for (const Elision elision :
           {Elision::None, Elision::ReplicationReuse,
            Elision::LocalKernelFusion}) {
        if (!unsupported_reason(f.kind, orientation, elision).empty()) {
          continue;
        }
        SCOPED_TRACE(to_string(f.kind) + " FusedMM " +
                     to_string(orientation) + " " + to_string(elision));
        const FusedResult want =
            clean.execute_fusedmm(orientation, elision, pr.s, pr.a, pr.b);
        const FusedResult got =
            faulty.execute_fusedmm(orientation, elision, pr.s, pr.a, pr.b);
        EXPECT_EQ(got.output.max_abs_diff(want.output), 0.0);
        EXPECT_EQ(got.stats.recoveries(), 1);
        expect_clean_traffic(got.stats, want.stats);
        ++fused_cases;
      }
    }
  }
  EXPECT_EQ(kernel_cases, 13);
  EXPECT_EQ(fused_cases, 17);
}

/// Replication plus propagation words of the critical rank.
std::uint64_t transport_words(const WorldStats& stats) {
  return stats.max_words(Phase::Replication) +
         stats.max_words(Phase::Propagation);
}

TEST(FaultTolerance, EveryEntryPointHealsACrash) {
  // Dense transports on an Erdos-Renyi instance.
  expect_every_entry_point_heals(make_problem(32, 48, 8, 67),
                                 AlgorithmOptions{}, "");
  // Auto transports on a power-law instance where every kernel of every
  // grid family moves fewer words than under Dense, so row- and
  // column-support messages are on the wire when the rank dies: alone
  // and with message faults.
  Rng rng(67);
  Problem pr{rmat(64, 64, 4 * 64, rng), DenseMatrix(64, 8),
             DenseMatrix(64, 8)};
  pr.a.fill_random(rng);
  pr.b.fill_random(rng);
  AlgorithmOptions sparse;
  sparse.replication = ReplicationMode::Auto;
  sparse.propagation = PropagationMode::Auto;
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    for (const Mode mode : {Mode::SDDMM, Mode::SpMMA, Mode::SpMMB}) {
      EXPECT_LT(
          transport_words(
              run_kernel_opts(kind, 8, 2, mode, pr, sparse).stats),
          transport_words(
              run_kernel_opts(kind, 8, 2, mode, pr, AlgorithmOptions{})
                  .stats))
          << to_string(kind) << " " << to_string(mode);
    }
  }
  for (const char* message_faults :
       {"", "seed=3,drop=0.02,dup=0.01,corrupt=0.01,delay=0.01,"
            "timeout_ms=10,"}) {
    SCOPED_TRACE(std::string("faults '") + message_faults + "'");
    expect_every_entry_point_heals(pr, sparse, message_faults);
  }
}

TEST(FaultTolerance, SingleReplicaCrashHealsFromCheckpoint) {
  // p = c means every row ring has one member: no surviving peer holds
  // a copy, so recovery falls back to the digest-verified checkpoint
  // store and adopts the restored bytes back into the replica store.
  const Problem pr = make_problem(32, 48, 8, 17);
  const FaultPlan plan = parse_fault_plan("crash=0@step:0");
  {
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::DenseRepl25D, 4, 4, Mode::SpMMA, pr, nullptr);
    const KernelResult got = run_kernel_with(
        AlgorithmKind::DenseRepl25D, 4, 4, Mode::SpMMA, pr, &plan);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
  {
    // c = 1 fibers of the sparse-replicating family are the same trap.
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::SparseRepl25D, 4, 1, Mode::SpMMA, pr, nullptr);
    const KernelResult got = run_kernel_with(
        AlgorithmKind::SparseRepl25D, 4, 1, Mode::SpMMA, pr, &plan);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
}

TEST(FaultTolerance, UnreplicatedFamiliesHealFromCheckpoint) {
  // 1.5D and 1D hold no replicas: the checkpoint store IS their
  // redundancy. A crash restores the scrubbed shard and re-runs to the
  // bit-identical answer.
  const Problem pr = make_problem(32, 48, 8, 19);
  struct Case {
    AlgorithmKind kind;
    int p;
    int c;
    int rank;
  };
  for (const Case& cs :
       {Case{AlgorithmKind::DenseShift15D, 8, 2, 2},
        Case{AlgorithmKind::SparseShift15D, 8, 2, 4},
        Case{AlgorithmKind::Baseline1D, 4, 1, 1}}) {
    FaultPlan plan;
    CrashSpec spec;
    spec.rank = cs.rank;
    spec.any_phase = true;
    spec.op_index = 0;
    plan.crashes.push_back(spec);
    const KernelResult clean =
        run_kernel_with(cs.kind, cs.p, cs.c, Mode::SpMMA, pr, nullptr);
    const KernelResult got =
        run_kernel_with(cs.kind, cs.p, cs.c, Mode::SpMMA, pr, &plan);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
        << to_string(cs.kind);
    EXPECT_EQ(got.stats.recoveries(), 1) << to_string(cs.kind);
  }
}

TEST(FaultTolerance, DenseShiftCrashSweepRecoversBitIdentically) {
  // Crash every rank at every shift step of the 1.5D dense-shifting
  // SpMMA: the checkpoint store restores the lost shard, the call
  // re-runs, and the output stays bit-identical.
  const Problem pr = make_problem(32, 48, 8, 47);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, nullptr);
  for (int rank = 0; rank < 8; ++rank) {
    for (int step : {0, 1}) {
      FaultPlan plan;
      CrashSpec spec;
      spec.rank = rank;
      spec.step = step;
      plan.crashes.push_back(spec);
      const KernelResult got = run_kernel_with(
          AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, &plan);
      EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
          << "crash=" << rank << "@step:" << step;
      EXPECT_EQ(got.stats.recoveries(), 1)
          << "crash=" << rank << "@step:" << step;
    }
  }
  // The circulating-accumulator (SpMMB) and SDDMM paths heal too.
  for (const Mode mode : {Mode::SpMMB, Mode::SDDMM}) {
    const KernelResult base = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, mode, pr, nullptr);
    const FaultPlan plan = parse_fault_plan("crash=5@step:1");
    const KernelResult got = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, mode, pr, &plan);
    if (mode == Mode::SpMMB) {
      EXPECT_EQ(got.dense.max_abs_diff(base.dense), 0.0);
    } else {
      EXPECT_EQ(got.sddmm_values, base.sddmm_values);
    }
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
}

TEST(FaultTolerance, SparseShiftCrashSweepRecoversBitIdentically) {
  // SDDMM is the sparse-shifting family's circulating-accumulator path
  // (dot products ride the ring payload); sweep it across every
  // (rank, step).
  const Problem pr = make_problem(32, 48, 8, 53);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::SparseShift15D, 8, 2, Mode::SDDMM, pr, nullptr);
  ASSERT_FALSE(clean.sddmm_values.empty());
  for (int rank = 0; rank < 8; ++rank) {
    for (int step : {0, 1}) {
      FaultPlan plan;
      CrashSpec spec;
      spec.rank = rank;
      spec.step = step;
      plan.crashes.push_back(spec);
      const KernelResult got = run_kernel_with(
          AlgorithmKind::SparseShift15D, 8, 2, Mode::SDDMM, pr, &plan);
      EXPECT_EQ(got.sddmm_values, clean.sddmm_values)
          << "crash=" << rank << "@step:" << step;
      EXPECT_EQ(got.stats.recoveries(), 1)
          << "crash=" << rank << "@step:" << step;
    }
  }
  for (const Mode mode : {Mode::SpMMA, Mode::SpMMB}) {
    const KernelResult base = run_kernel_with(
        AlgorithmKind::SparseShift15D, 8, 2, mode, pr, nullptr);
    const FaultPlan plan = parse_fault_plan("crash=6@step:1");
    const KernelResult got = run_kernel_with(
        AlgorithmKind::SparseShift15D, 8, 2, mode, pr, &plan);
    EXPECT_EQ(got.dense.max_abs_diff(base.dense), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
  }
}

TEST(FaultTolerance, BaselineCrashSweepRecoversBitIdentically) {
  // The 1D baseline has no shift loops, so sweep comm-op triggers: every
  // crash forces a full checkpointed re-run that must converge (fired
  // specs never re-fire).
  const Problem pr = make_problem(32, 48, 8, 59);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::Baseline1D, 4, 1, Mode::SpMMA, pr, nullptr);
  for (int rank = 0; rank < 4; ++rank) {
    for (int op : {0, 1, 2}) {
      FaultPlan plan;
      CrashSpec spec;
      spec.rank = rank;
      spec.any_phase = true;
      spec.op_index = op;
      plan.crashes.push_back(spec);
      const KernelResult got = run_kernel_with(
          AlgorithmKind::Baseline1D, 4, 1, Mode::SpMMA, pr, &plan);
      EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
          << "crash=" << rank << "@any:" << op;
      EXPECT_EQ(got.stats.recoveries(), 1)
          << "crash=" << rank << "@any:" << op;
    }
  }
}

TEST(FaultTolerance, RecoveryBudgetExhaustedCarriesReplayString) {
  // With the budget at zero the crash is permanent; the structured error
  // must embed the deterministic replay string so the failure is
  // reproducible from the message alone.
  const Problem pr = make_problem(32, 48, 8, 41);
  const FaultPlan plan = parse_fault_plan("crash=3@step:1");
  AlgorithmOptions options;
  options.faults = &plan;
  options.max_recoveries = 0;
  try {
    run_kernel_opts(AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr,
                    options);
    FAIL() << "expected dsk::WorldError";
  } catch (const WorldError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recovery budget exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[replay: "), std::string::npos) << what;
    EXPECT_NE(what.find("crash=3@step:1"), std::string::npos) << what;
    EXPECT_EQ(e.crash().rank, 3);
  }
}

TEST(FaultTolerance, DegradedRunShrinksWorldToSurvivors) {
  // Budget zero + --degrade semantics: the lost rank is permanent, so
  // the driver re-shards the problem onto the largest valid smaller grid
  // and re-runs fault-free from the checkpointed inputs.
  const Problem pr = make_problem(32, 48, 8, 37);
  const FaultPlan plan = parse_fault_plan("crash=1@any:0");
  {
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::Baseline1D, 4, 1, Mode::SpMMA, pr, nullptr);
    AlgorithmOptions options;
    options.faults = &plan;
    options.max_recoveries = 0;
    options.degrade = true;
    const KernelResult got = run_kernel_opts(
        AlgorithmKind::Baseline1D, 4, 1, Mode::SpMMA, pr, options);
    EXPECT_LE(got.dense.max_abs_diff(clean.dense), 1e-9);
    EXPECT_TRUE(got.stats.degraded());
    EXPECT_EQ(got.stats.degraded_rank(), 1);
    EXPECT_EQ(got.stats.degraded_from(), 4);
    EXPECT_EQ(got.stats.degraded_to(), 3);
  }
  {
    // A 1.5D family shrinks 8/2 onto the largest valid smaller grid.
    const KernelResult clean = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, nullptr);
    AlgorithmOptions options;
    options.faults = &plan;
    options.max_recoveries = 0;
    options.degrade = true;
    const KernelResult got = run_kernel_opts(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, options);
    EXPECT_LE(got.dense.max_abs_diff(clean.dense), 1e-9);
    EXPECT_TRUE(got.stats.degraded());
    EXPECT_EQ(got.stats.degraded_from(), 8);
    EXPECT_EQ(got.stats.degraded_to(), 7);
  }
}

TEST(FaultTolerance, ShrinkConfigFindsLargestValidSmallerGrid) {
  EXPECT_EQ(shrink_config(AlgorithmKind::Baseline1D, 4, 1),
            (std::pair<int, int>{3, 1}));
  EXPECT_EQ(shrink_config(AlgorithmKind::DenseShift15D, 8, 2),
            (std::pair<int, int>{7, 1}));
  EXPECT_EQ(shrink_config(AlgorithmKind::DenseRepl25D, 8, 2),
            (std::pair<int, int>{4, 1}));
  EXPECT_EQ(shrink_config(AlgorithmKind::SparseRepl25D, 16, 4),
            (std::pair<int, int>{12, 3}));
  EXPECT_THROW(shrink_config(AlgorithmKind::Baseline1D, 1, 1), Error);
}

/// Crash rank 3 at Replication-phase comm op `op` of a DenseRepl25D
/// kernel under the default (double-buffered) schedule; returns the run.
KernelResult run_with_replication_crash(Mode mode, const Problem& pr,
                                        int op) {
  FaultPlan plan;
  CrashSpec spec;
  spec.rank = 3;
  spec.any_phase = false;
  spec.phase = Phase::Replication;
  spec.op_index = op;
  plan.crashes.push_back(spec);
  return run_kernel_with(AlgorithmKind::DenseRepl25D, 8, 2, mode, pr, &plan);
}

TEST(FaultTolerance, DoubleBufferedAllgatherCrashSweepHealsBitIdentically) {
  // SDDMM's Replication phase is the fiber all-gather ahead of the shift
  // loop: crash rank 3 at each of its comm ops in turn (indices past the
  // last op never fire) and demand bit-identity every time.
  const Problem pr = make_problem(32, 48, 8, 43);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::DenseRepl25D, 8, 2, Mode::SDDMM, pr, nullptr);
  ASSERT_FALSE(clean.sddmm_values.empty());
  int fired = 0;
  for (int op = 0; op < 8; ++op) {
    const KernelResult got = run_with_replication_crash(Mode::SDDMM, pr, op);
    EXPECT_EQ(got.sddmm_values, clean.sddmm_values) << "crash=3@repl:" << op;
    fired += got.stats.recoveries();
  }
  // The sweep must actually have crashed inside the all-gather.
  EXPECT_GE(fired, 1);
}

TEST(FaultTolerance, DoubleBufferedReduceScatterCrashSweepHealsBitIdentically) {
  // SpMMA's Replication phase is the fiber reduce-scatter after the
  // shift loop, so these crashes land after every shift step ran.
  const Problem pr = make_problem(32, 48, 8, 43);
  const KernelResult clean = run_kernel_with(
      AlgorithmKind::DenseRepl25D, 8, 2, Mode::SpMMA, pr, nullptr);
  int fired = 0;
  for (int op = 0; op < 8; ++op) {
    const KernelResult got = run_with_replication_crash(Mode::SpMMA, pr, op);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
        << "crash=3@repl:" << op;
    fired += got.stats.recoveries();
  }
  EXPECT_GE(fired, 1);
}

// ---------------------------------------------------------------------
// Checkpoint store unit coverage: in-memory save/restore, the disk
// backend behind DSK_CKPT_DIR, and digest verification on restore.
// ---------------------------------------------------------------------

TEST(CheckpointStoreTest, InMemoryScrubAndRestoreRoundTrips) {
  // The store keeps its own copy: scrubbing the rank's shard where it
  // computes leaves the checkpoint intact.
  CheckpointStore store(2);
  std::vector<Scalar> shard{1.0, 2.5, -3.0};
  store.save_shard(0, shard);
  EXPECT_TRUE(store.saved(0));
  EXPECT_FALSE(store.saved(1));
  std::fill(shard.begin(), shard.end(),
            std::numeric_limits<Scalar>::quiet_NaN());
  const auto restored = store.restore(0);
  EXPECT_FALSE(restored.from_disk);
  EXPECT_EQ(restored.values, (std::vector<Scalar>{1.0, 2.5, -3.0}));
  EXPECT_EQ(store.saves(), 1);
  EXPECT_EQ(store.restores(), 1);
}

TEST(CheckpointStoreTest, RestoreWithoutSaveIsStructuredError) {
  CheckpointStore store(1);
  EXPECT_THROW(store.restore(0), WorldError);
}

TEST(CheckpointStoreTest, DiskBackendRestoresAndDetectsCorruption) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dsk_ckpt_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("DSK_CKPT_DIR", dir.c_str(), 1);
  {
    CheckpointStore store(1);
    store.save_shard(0, {4.0, 5.0});
    const fs::path file = store.shard_path(0);
    EXPECT_EQ(file.parent_path(), dir);
    EXPECT_TRUE(fs::exists(file));
    const auto restored = store.restore(0);
    EXPECT_TRUE(restored.from_disk);
    EXPECT_EQ(restored.values, (std::vector<Scalar>{4.0, 5.0}));
    // Flip a payload byte on disk: the digest recorded at save time must
    // catch the rot instead of handing poisoned bytes to the rank.
    {
      std::FILE* f = std::fopen(file.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 4 * 8 + 3, SEEK_SET); // into the first payload word
      std::fputc(0x5a, f);
      std::fclose(f);
    }
    EXPECT_THROW(store.restore(0), WorldError);
    // A rotted header must be rejected before its count word sizes any
    // allocation: 2^59 doubles is 4 EiB, 2^62 exceeds max_size().
    const auto rewrite_header_word = [&](long index, std::uint64_t word) {
      store.save_shard(0, {4.0, 5.0});
      std::FILE* f = std::fopen(file.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fseek(f, index * 8, SEEK_SET);
      std::fwrite(&word, sizeof word, 1, f);
      std::fclose(f);
    };
    for (const std::uint64_t count : {std::uint64_t{1} << 59,
                                      std::uint64_t{1} << 62}) {
      rewrite_header_word(3, count);
      EXPECT_THROW(store.restore(0), WorldError) << "count " << count;
    }
    rewrite_header_word(3, std::uint64_t{1} << 59);
    {
      std::FILE* f = std::fopen(file.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fputc(0x00, f); // first byte of the magic word
      std::fclose(f);
    }
    EXPECT_THROW(store.restore(0), WorldError) << "bad magic, huge count";
  }
  ::unsetenv("DSK_CKPT_DIR");
  fs::remove_all(dir);
}

TEST(CheckpointStoreTest, DiskBackendKeepsRunAndDegradeCheckpointsApart) {
  // Drivers under DSK_CKPT_DIR: a fault-free run writes nothing, a
  // degraded run restores its input checkpoint even though the crashed
  // run's per-rank checkpoints share the directory, and a crash heals
  // from the files on disk. Every run removes its files.
  namespace fs = std::filesystem;
  std::string dir_name =
      (fs::temp_directory_path() / "dsk_ckpt_runs_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir_name.data()), nullptr);
  const fs::path dir = dir_name;
  ::setenv("DSK_CKPT_DIR", dir.c_str(), 1);
  // Unset the variable and remove the directory even if a run throws.
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      ::unsetenv("DSK_CKPT_DIR");
      fs::remove_all(dir);
    }
  } cleanup{dir};
  const Problem pr = make_problem(32, 48, 8, 71);
  const Plan plan = make_plan(AlgorithmKind::DenseShift15D, 8, 2, pr.s,
                              pr.a.cols());
  const KernelResult clean = plan.execute(Mode::SpMMA, pr.s, pr.a, pr.b);
  EXPECT_TRUE(fs::is_empty(dir));
  {
    const FaultPlan faults = parse_fault_plan("crash=1@any:0");
    AlgorithmOptions options;
    options.faults = &faults;
    options.max_recoveries = 0;
    options.degrade = true;
    const int disk_restores = CheckpointStore::disk_restores();
    const KernelResult got = run_kernel_opts(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, options);
    EXPECT_LE(got.dense.max_abs_diff(clean.dense), 1e-9);
    EXPECT_EQ(got.stats.degraded_rank(), 1);
    EXPECT_EQ(got.stats.degraded_from(), 8);
    EXPECT_EQ(got.stats.degraded_to(), 7);
    // The input checkpoint came back from its file.
    EXPECT_EQ(CheckpointStore::disk_restores(), disk_restores + 1);
    EXPECT_TRUE(fs::is_empty(dir));
  }
  {
    const FaultPlan faults = parse_fault_plan("crash=3@step:1");
    const int disk_restores = CheckpointStore::disk_restores();
    const KernelResult got = run_kernel_with(
        AlgorithmKind::DenseShift15D, 8, 2, Mode::SpMMA, pr, &faults);
    EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0);
    EXPECT_EQ(got.stats.recoveries(), 1);
    // Rank 3's shard came back from its file.
    EXPECT_EQ(CheckpointStore::disk_restores(), disk_restores + 1);
    EXPECT_TRUE(fs::is_empty(dir));
  }
}

TEST(CheckpointStoreTest, DiskBackendKeepsLiveStoresApart) {
  // Two stores alive at once over one directory — as two processes that
  // share DSK_CKPT_DIR have — each restore their own shards, and leave
  // no file behind.
  namespace fs = std::filesystem;
  std::string dir_name =
      (fs::temp_directory_path() / "dsk_ckpt_pair_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir_name.data()), nullptr);
  const fs::path dir = dir_name;
  ::setenv("DSK_CKPT_DIR", dir.c_str(), 1);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      ::unsetenv("DSK_CKPT_DIR");
      fs::remove_all(dir);
    }
  } cleanup{dir};
  const auto shard = [](int store, int rank) {
    return std::vector<Scalar>{1.0 + store, -2.0 * rank, 0.5 * store};
  };
  // The rank's restored values; empty when the restore rejects the file.
  const auto restored = [](CheckpointStore& store, int rank) {
    try {
      return store.restore(rank).values;
    } catch (const WorldError&) {
      return std::vector<Scalar>{};
    }
  };
  {
    CheckpointStore first(2);
    CheckpointStore second(2);
    for (int rank = 0; rank < 2; ++rank) {
      first.save_shard(rank, shard(0, rank));
      second.save_shard(rank, shard(1, rank));
    }
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_EQ(restored(first, rank), shard(0, rank)) << "rank " << rank;
      EXPECT_EQ(restored(second, rank), shard(1, rank)) << "rank " << rank;
    }
  }
  EXPECT_TRUE(fs::is_empty(dir));
}

// ---------------------------------------------------------------------
// Fault-plan grammar hardening: malformed specs are rejected with
// structured errors, and every accepted plan survives an exact replay
// round trip (including a randomized token-soup fuzz).
// ---------------------------------------------------------------------

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "seed",                          // not key=value
      "wibble=1",                      // unknown key
      "seed=1,",                       // trailing comma
      "seed=1,,drop=0.1",              // doubled comma
      "seed=1,seed=2",                 // duplicate scalar key
      "seed=-3",                       // negative seed
      "drop=-0.1",                     // negative rate
      "drop=1.5",                      // rate above 1
      "drop=0.1junk",                  // trailing garbage in value
      "seed=1x",                       // trailing garbage
      "timeout_ms=0",                  // non-positive timeout
      "attempts=0",                    // non-positive budget
      "crash=1",                       // missing trigger
      "crash=-1@step:0",               // negative rank
      "crash=1@step:-2",               // negative index
      "crash=1@bogus:0",               // unknown trigger
      "crash=1@step:0,crash=1@step:0", // duplicate crash trigger
      "msg=drop:1->0:0",               // missing field
      "msg=drop:-1->0:0:0",            // negative endpoint
      "msg=flip:1->0:0:0",             // unknown kind
      "msg=drop:1->0:0:0,msg=drop:1->0:0:0", // duplicate message fault
      "timeout_ms=4294967297",         // out of int range (was 1)
      "attempts=4294967297",           // out of int range (was 1)
      "crash=4294967296@step:0",       // out of int range (was rank 0)
      "crash=0@step:4294967297",       // out of int range (was step 1)
      "msg=drop:4294967296->1:0:0",    // out of int range (was source 0)
      "seed=99999999999999999999",     // out of uint64 range (was 2^63-1)
  };
  for (const char* spec : bad) {
    EXPECT_THROW(parse_fault_plan(spec), Error) << spec;
  }
}

TEST(FaultPlanParse, ReplayStringRoundTripsExactly) {
  FaultPlan plan;
  plan.seed = 12345;
  plan.drop_rate = 0.1; // not binary-exact: needs shortest-round-trip fmt
  plan.dup_rate = 1e-3;
  plan.corrupt_rate = 0.017;
  plan.delay_rate = 0.25;
  plan.timeout_ms = 7;
  plan.max_attempts = 3;
  plan.crashes = parse_fault_plan("crash=3@step:1,crash=2@repl:5").crashes;
  MessageFaultSpec msg;
  msg.kind = FaultKind::Corrupt;
  msg.source = 1;
  msg.dest = 0;
  msg.tag = 2;
  msg.seq = 9;
  plan.messages.push_back(msg);
  EXPECT_EQ(parse_fault_plan(to_replay_string(plan)), plan)
      << to_replay_string(plan);
  // Seeds span the whole uint64 range, not just its signed half.
  plan.seed = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_fault_plan(to_replay_string(plan)), plan)
      << to_replay_string(plan);
}

TEST(FaultPlanParse, GrammarFuzzParsesOrRejectsCleanly) {
  const char* tokens[] = {"seed=",  "drop=", "dup=",   "corrupt=",
                          "delay=", "timeout_ms=", "attempts=", "crash=",
                          "msg=",   "0",     "1",     "7",
                          "0.5",    "-3",    "@",     "step",
                          "any",    "repl",  "prop",  ":",
                          ",",      "=",     "->",    "junk",
                          "drop",   "1e-2"};
  std::mt19937 rng(1234);
  for (int iter = 0; iter < 500; ++iter) {
    std::string spec;
    const int len = 1 + static_cast<int>(rng() % 8);
    for (int k = 0; k < len; ++k) {
      spec += tokens[rng() % std::size(tokens)];
    }
    try {
      const FaultPlan plan = parse_fault_plan(spec);
      // Anything accepted must survive an exact replay round trip.
      EXPECT_EQ(parse_fault_plan(to_replay_string(plan)), plan) << spec;
    } catch (const Error&) {
      // Rejection is fine — the parser must just never accept ambiguity
      // or crash.
    }
  }
}

// ---------------------------------------------------------------------
// Randomized soak: every driver family under randomized message faults
// (plus a rank crash for the replicated 2.5D families), seeds taken
// from DSK_SOAK_SEEDS so CI can randomize while local runs stay cheap.
// Failures print the deterministic replay string.
// ---------------------------------------------------------------------

std::vector<std::uint64_t> soak_seeds() {
  const char* env = std::getenv("DSK_SOAK_SEEDS");
  std::stringstream in(env != nullptr ? env : "1,2");
  std::vector<std::uint64_t> seeds;
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) seeds.push_back(std::stoull(token));
  }
  return seeds;
}

TEST(FaultSoak, AllDriversHealRandomizedFaults) {
  const Problem pr = make_problem(32, 48, 8, 23);
  struct SoakConfig {
    AlgorithmKind kind;
    int p;
    int c;
    bool step_trigger; ///< shift families crash at a step, 1D at an op
  };
  const SoakConfig configs[] = {
      {AlgorithmKind::Baseline1D, 8, 1, false},
      {AlgorithmKind::DenseShift15D, 8, 2, true},
      {AlgorithmKind::SparseShift15D, 8, 2, true},
      {AlgorithmKind::DenseRepl25D, 8, 2, true},
      {AlgorithmKind::SparseRepl25D, 8, 2, true},
  };
  for (const SoakConfig& cfg : configs) {
    const KernelResult clean =
        run_kernel_with(cfg.kind, cfg.p, cfg.c, Mode::SpMMA, pr, nullptr);
    for (const std::uint64_t seed : soak_seeds()) {
      FaultPlan plan;
      plan.seed = seed;
      plan.drop_rate = 0.02;
      plan.dup_rate = 0.01;
      plan.corrupt_rate = 0.01;
      plan.delay_rate = 0.01;
      plan.timeout_ms = 10;
      CrashSpec spec;
      spec.rank = static_cast<int>(seed % cfg.p);
      if (cfg.step_trigger) {
        spec.step = 1;
      } else {
        spec.any_phase = true;
        spec.op_index = static_cast<int>(seed % 3);
      }
      plan.crashes.push_back(spec);
      const std::string replay = to_replay_string(plan);
      try {
        const KernelResult got =
            run_kernel_with(cfg.kind, cfg.p, cfg.c, Mode::SpMMA, pr, &plan);
        EXPECT_EQ(got.dense.max_abs_diff(clean.dense), 0.0)
            << to_string(cfg.kind) << " replay: " << replay;
        EXPECT_EQ(got.stats.recoveries(), 1)
            << to_string(cfg.kind) << " replay: " << replay;
      } catch (const Error& e) {
        ADD_FAILURE() << to_string(cfg.kind) << " replay: " << replay
                      << "\n  " << e.what();
      }
    }
  }
}

} // namespace
} // namespace dsk
