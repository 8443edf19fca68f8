#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "runtime/collectives.hpp"
#include "runtime/world.hpp"

namespace dsk {
namespace {

std::vector<int> all_ranks(int p) {
  std::vector<int> members(static_cast<std::size_t>(p));
  std::iota(members.begin(), members.end(), 0);
  return members;
}

TEST(World, RunsEveryRank) {
  std::vector<std::atomic<int>> hits(8);
  run_spmd(8, [&](Comm& comm) {
    hits[static_cast<std::size_t>(comm.rank())]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(World, PointToPointRoundTrip) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<Scalar> payload{1.5, -2.5, 3.25};
      comm.send<Scalar>(1, kTagUser, payload);
      const auto back = comm.recv<Scalar>(1, kTagUser);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_EQ(back[0], 3.0);
    } else {
      auto data = comm.recv<Scalar>(0, kTagUser);
      for (auto& x : data) x *= 2;
      comm.send<Scalar>(0, kTagUser, data);
    }
  });
}

TEST(World, MessagesAreFifoPerSourceAndTag) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.send<Index>(1, kTagUser, std::vector<Index>{i});
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        const auto msg = comm.recv<Index>(0, kTagUser);
        ASSERT_EQ(msg.size(), 1u);
        EXPECT_EQ(msg[0], i);
      }
    }
  });
}

TEST(World, ExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(
      run_spmd(4,
               [](Comm& comm) {
                 if (comm.rank() == 3) {
                   fail("rank 3 exploded");
                 }
                 // Other ranks block forever waiting for a message that
                 // never comes; the abort must wake them.
                 comm.recv<Scalar>(3, kTagUser);
               }),
      Error);
}

TEST(World, CountsWordsAndMessages) {
  auto stats = run_spmd(2, [](Comm& comm) {
    PhaseScope scope(comm.stats(), Phase::Propagation);
    if (comm.rank() == 0) {
      comm.send<Scalar>(1, kTagUser, std::vector<Scalar>(100, 1.0));
    } else {
      comm.recv<Scalar>(0, kTagUser);
    }
  });
  EXPECT_EQ(stats.rank(0).phase(Phase::Propagation).words_sent, 100u);
  EXPECT_EQ(stats.rank(0).phase(Phase::Propagation).messages_sent, 1u);
  EXPECT_EQ(stats.rank(1).phase(Phase::Propagation).words_received, 100u);
  EXPECT_EQ(stats.max_words(Phase::Propagation), 100u);
  EXPECT_EQ(stats.max_words(Phase::Replication), 0u);
}

TEST(World, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> ok{true};
  run_spmd(6, [&](Comm& comm) {
    before++;
    comm.barrier();
    if (before.load() != 6) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(World, ShiftExchangeCyclesARing) {
  const int p = 5;
  run_spmd(p, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<Scalar> token{static_cast<Scalar>(r)};
    MessageWords words(token.size());
    std::memcpy(words.data(), token.data(), sizeof(Scalar));
    // After p shifts every token returns home.
    for (int s = 0; s < p; ++s) {
      words = comm.shift_exchange((r + 1) % p, (r - 1 + p) % p,
                                  std::move(words));
    }
    Scalar back;
    std::memcpy(&back, words.data(), sizeof(Scalar));
    EXPECT_EQ(back, static_cast<Scalar>(r));
  });
}

TEST(Collectives, AllgatherOrdersByPosition) {
  const int p = 6;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    std::vector<Scalar> mine{static_cast<Scalar>(comm.rank()),
                             static_cast<Scalar>(comm.rank()) + 0.5};
    const auto all = group.allgather(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
    for (int q = 0; q < p; ++q) {
      EXPECT_EQ(all[static_cast<std::size_t>(2 * q)], q);
      EXPECT_EQ(all[static_cast<std::size_t>(2 * q) + 1], q + 0.5);
    }
  });
}

TEST(Collectives, AllgatherWordCostMatchesTheory) {
  // Ring all-gather over g ranks with M words each: (g-1)*M words sent
  // per rank — the ((g-1)/g) * gM cost from Chan et al.
  const int g = 8;
  const std::size_t m = 64;
  auto stats = run_spmd(g, [&](Comm& comm) {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group group(comm, all_ranks(g));
    group.allgather(std::vector<Scalar>(m, 1.0));
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_EQ(stats.rank(r).phase(Phase::Replication).words_sent,
              static_cast<std::uint64_t>((g - 1) * m));
    EXPECT_EQ(stats.rank(r).phase(Phase::Replication).messages_sent,
              static_cast<std::uint64_t>(g - 1));
  }
}

TEST(Collectives, ReduceScatterSumsAndScatters) {
  const int p = 4;
  const std::size_t chunk = 3;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    // Rank r contributes value (r+1) everywhere; each chunk must sum to
    // 1+2+3+4 = 10 per element.
    std::vector<Scalar> local(chunk * p,
                              static_cast<Scalar>(comm.rank() + 1));
    const auto mine = group.reduce_scatter(local);
    ASSERT_EQ(mine.size(), chunk);
    for (const auto x : mine) EXPECT_DOUBLE_EQ(x, 10.0);
  });
}

TEST(Collectives, ReduceScatterChunkIdentity) {
  // Rank r's output chunk must be the sum of every rank's chunk r.
  const int p = 3;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    // local chunk q on rank r holds value 100*r + q.
    std::vector<Scalar> local;
    for (int q = 0; q < p; ++q) {
      local.push_back(static_cast<Scalar>(100 * comm.rank() + q));
    }
    const auto mine = group.reduce_scatter(local);
    ASSERT_EQ(mine.size(), 1u);
    // sum over r of (100 r + pos) = 100*(0+1+2) + 3*pos
    EXPECT_DOUBLE_EQ(mine[0], 300.0 + 3.0 * comm.rank());
  });
}

TEST(Collectives, AllreduceMatchesSum) {
  const int p = 5;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    std::vector<Scalar> local{1.0, static_cast<Scalar>(comm.rank()), -2.0};
    const auto out = group.allreduce(local);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 5.0);
    EXPECT_DOUBLE_EQ(out[1], 10.0);
    EXPECT_DOUBLE_EQ(out[2], -10.0);
  });
}

TEST(Collectives, BroadcastDistributesRootData) {
  const int p = 4;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    std::vector<Scalar> data(10, comm.rank() == 2 ? 7.25 : 0.0);
    group.broadcast(data, 2);
    for (const auto x : data) EXPECT_DOUBLE_EQ(x, 7.25);
  });
}

TEST(Collectives, AllgatherVariableLengths) {
  const int p = 4;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    // Rank r contributes r+1 words of value r.
    std::vector<std::uint64_t> mine(
        static_cast<std::size_t>(comm.rank()) + 1,
        static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::size_t> offsets;
    const auto all = group.allgather_words(mine, &offsets);
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(p + 1));
    EXPECT_EQ(all.size(), 1u + 2u + 3u + 4u);
    for (int q = 0; q < p; ++q) {
      EXPECT_EQ(offsets[static_cast<std::size_t>(q) + 1] -
                    offsets[static_cast<std::size_t>(q)],
                static_cast<std::size_t>(q) + 1);
      for (std::size_t k = offsets[static_cast<std::size_t>(q)];
           k < offsets[static_cast<std::size_t>(q) + 1]; ++k) {
        EXPECT_EQ(all[k], static_cast<std::uint64_t>(q));
      }
    }
  });
}

TEST(Collectives, SubgroupsOperateIndependently) {
  // Two disjoint fiber groups run all-gathers concurrently.
  run_spmd(6, [](Comm& comm) {
    const int color = comm.rank() % 2;
    std::vector<int> members;
    for (int q = color; q < 6; q += 2) members.push_back(q);
    Group group(comm, members);
    const auto all = group.allgather(
        std::vector<Scalar>{static_cast<Scalar>(comm.rank())});
    ASSERT_EQ(all.size(), 3u);
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i], static_cast<Scalar>(color + 2 * i));
    }
  });
}

TEST(Collectives, SingleRankGroupIsFree) {
  auto stats = run_spmd(1, [](Comm& comm) {
    Group group(comm, {0});
    const auto out = group.allreduce(std::vector<Scalar>{3.0});
    EXPECT_DOUBLE_EQ(out[0], 3.0);
  });
  EXPECT_EQ(stats.rank(0).total().words_sent, 0u);
}

TEST(Collectives, GatherWordsCollectsAtRoot) {
  const int p = 3;
  run_spmd(p, [&](Comm& comm) {
    Group group(comm, all_ranks(p));
    std::vector<std::uint64_t> mine{
        static_cast<std::uint64_t>(comm.rank() * 11)};
    const auto gathered = group.gather_words(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 3u);
      for (int q = 0; q < p; ++q) {
        ASSERT_EQ(gathered[static_cast<std::size_t>(q)].size(), 1u);
        EXPECT_EQ(gathered[static_cast<std::size_t>(q)][0],
                  static_cast<std::uint64_t>(q * 11));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Stats, NestedPhaseScopesAreExclusive) {
  // A Computation scope opened INSIDE a Replication scope must pause the
  // outer clock so every instant lands in exactly one phase. The inner
  // scope burns ~80ms; if the outer scope double-counted it (the old
  // behavior), the outer span would exceed the inner's.
  RankStats stats;
  const auto nap = [](int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  {
    PhaseScope outer(stats, Phase::Replication);
    nap(5);
    {
      PhaseScope inner(stats, Phase::Computation);
      nap(80);
    }
    nap(5);
    EXPECT_EQ(stats.current_phase(), Phase::Replication);
  }
  EXPECT_EQ(stats.current_phase(), Phase::Other);
  EXPECT_GE(stats.seconds(Phase::Computation), 0.08);
  EXPECT_GE(stats.seconds(Phase::Replication), 0.01);
  // Generous slack for loaded hosts and sanitizers: the outer span must
  // exclude the inner 80ms, so anything close to it means double-count.
  EXPECT_LT(stats.seconds(Phase::Replication), 0.06);
  // Phase attribution of counters follows the innermost scope too.
  {
    PhaseScope outer(stats, Phase::Replication);
    stats.record_send(7);
    {
      PhaseScope inner(stats, Phase::Computation);
      stats.add_flops(11);
    }
    stats.record_send(3);
  }
  EXPECT_EQ(stats.phase(Phase::Replication).words_sent, 10u);
  EXPECT_EQ(stats.phase(Phase::Computation).flops, 11u);
}

TEST(Stats, ModeledTimeUsesMachineModel) {
  auto stats = run_spmd(2, [](Comm& comm) {
    PhaseScope scope(comm.stats(), Phase::Propagation);
    if (comm.rank() == 0) {
      comm.send<Scalar>(1, kTagUser, std::vector<Scalar>(1000, 1.0));
    } else {
      comm.recv<Scalar>(0, kTagUser);
      comm.stats().add_flops(500);
    }
  });
  MachineModel m{1e-6, 1e-9, 1e-10};
  const double t = stats.modeled_phase_seconds(Phase::Propagation, m);
  // rank 0: 1e-6 + 1000e-9 = 2e-6 ; rank 1: 1000e-9 + 500e-10 = 1.05e-6.
  EXPECT_NEAR(t, 2.0e-6, 1e-12);
}

} // namespace
} // namespace dsk
