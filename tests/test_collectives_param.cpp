/// Property sweep over group sizes: the ring collectives must satisfy
/// their algebraic identities and exact ring cost for every group size,
/// not just the sizes the algorithm tests happen to exercise.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "dist/shards.hpp"
#include "runtime/collectives.hpp"
#include "runtime/world.hpp"

namespace dsk {
namespace {

class CollectiveSweep : public ::testing::TestWithParam<int> {};

std::vector<int> all_ranks(int p) {
  std::vector<int> members(static_cast<std::size_t>(p));
  std::iota(members.begin(), members.end(), 0);
  return members;
}

TEST_P(CollectiveSweep, AllgatherThenSliceIsIdentity) {
  const int g = GetParam();
  run_spmd(g, [&](Comm& comm) {
    Group group(comm, all_ranks(g));
    std::vector<Scalar> mine(5);
    Rng rng(100 + static_cast<unsigned>(comm.rank()));
    for (auto& x : mine) x = rng.next_in(-1, 1);
    const auto all = group.allgather(mine);
    ASSERT_EQ(all.size(), 5u * static_cast<std::size_t>(g));
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(all[static_cast<std::size_t>(comm.rank()) * 5 + k],
                mine[k]);
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatterPlusAllgatherEqualsAllreduce) {
  const int g = GetParam();
  run_spmd(g, [&](Comm& comm) {
    Group group(comm, all_ranks(g));
    std::vector<Scalar> local(static_cast<std::size_t>(3 * g));
    Rng rng(200 + static_cast<unsigned>(comm.rank()));
    for (auto& x : local) x = rng.next_in(-1, 1);

    const auto chunk = group.reduce_scatter(local);
    const auto via_rs_ag = group.allgather(chunk);
    const auto direct = group.allreduce(local);
    ASSERT_EQ(via_rs_ag.size(), direct.size());
    for (std::size_t k = 0; k < direct.size(); ++k) {
      EXPECT_NEAR(via_rs_ag[k], direct[k], 1e-12);
    }
  });
}

TEST_P(CollectiveSweep, AllreduceMatchesSerialSum) {
  const int g = GetParam();
  // Deterministic inputs so the expected sum is computable outside.
  std::vector<std::vector<Scalar>> inputs(static_cast<std::size_t>(g));
  for (int q = 0; q < g; ++q) {
    Rng rng(300 + static_cast<unsigned>(q));
    inputs[static_cast<std::size_t>(q)].resize(7);
    for (auto& x : inputs[static_cast<std::size_t>(q)]) {
      x = rng.next_in(-1, 1);
    }
  }
  std::vector<Scalar> expected(7, 0.0);
  for (const auto& in : inputs) {
    for (std::size_t k = 0; k < 7; ++k) expected[k] += in[k];
  }
  run_spmd(g, [&](Comm& comm) {
    Group group(comm, all_ranks(g));
    const auto out = group.allreduce(
        inputs[static_cast<std::size_t>(comm.rank())]);
    ASSERT_EQ(out.size(), 7u);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_NEAR(out[k], expected[k], 1e-12);
    }
  });
}

TEST_P(CollectiveSweep, RingCostIsExact) {
  const int g = GetParam();
  const std::size_t words = 12;
  auto stats = run_spmd(g, [&](Comm& comm) {
    PhaseScope scope(comm.stats(), Phase::Replication);
    Group group(comm, all_ranks(g));
    group.allgather(std::vector<Scalar>(words, 1.0));
  });
  for (int rank = 0; rank < g; ++rank) {
    EXPECT_EQ(stats.rank(rank).phase(Phase::Replication).words_sent,
              static_cast<std::uint64_t>(g - 1) * words);
  }
}

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const int g = GetParam();
  for (int root = 0; root < g; ++root) {
    run_spmd(g, [&](Comm& comm) {
      Group group(comm, all_ranks(g));
      std::vector<Scalar> data(9, comm.rank() == root ? 3.75 : -1.0);
      group.broadcast(data, root);
      for (const auto x : data) EXPECT_EQ(x, 3.75);
    });
  }
}

TEST_P(CollectiveSweep, RejectsRaggedLastBlock) {
  // Regression: the equal-block-size check used to stop one block short
  // (b + 1 < offsets.size()), so a ragged FINAL block was silently
  // concatenated into a misshapen result. The last member smuggles an
  // oversized block through the header-free word API (so its own call
  // performs no size check); every other member's Scalar allgather must
  // reject the ragged final block.
  const int g = GetParam();
  if (g < 2) return; // a single member has no peers to validate
  EXPECT_THROW(
      run_spmd(g,
               [&](Comm& comm) {
                 Group group(comm, all_ranks(g));
                 if (comm.rank() == g - 1) {
                   group.allgather_words(MessageWords(6, 0));
                 } else {
                   group.allgather(std::vector<Scalar>(5, 1.0));
                 }
               }),
      Error);
}

/// Support regimes for the row-sparse replication collectives: nobody
/// needs anything, each member needs one row, every member needs the
/// whole block (the density crossover's far side).
enum class Support { Empty, SingleRow, Full };

std::vector<std::vector<Index>> make_wants(Support regime, int g,
                                           Index total_rows) {
  std::vector<std::vector<Index>> wants(static_cast<std::size_t>(g));
  Rng rng(600 + static_cast<unsigned>(g));
  for (int t = 0; t < g; ++t) {
    auto& w = wants[static_cast<std::size_t>(t)];
    switch (regime) {
      case Support::Empty:
        break;
      case Support::SingleRow:
        w.push_back(rng.next_index(0, total_rows));
        break;
      case Support::Full:
        w.resize(static_cast<std::size_t>(total_rows));
        std::iota(w.begin(), w.end(), Index{0});
        break;
    }
  }
  return wants;
}

constexpr Index kBlockRows = 6;
constexpr Index kWidth = 3;

DenseMatrix member_block(int member) {
  DenseMatrix block(kBlockRows, kWidth);
  Rng rng(700 + static_cast<unsigned>(member));
  block.fill_random(rng);
  return block;
}

/// Member `member`'s reduce-scatter partial: random values on the rows of
/// its own support, zero elsewhere — exactly the contract the SpMM-A
/// drivers satisfy.
DenseMatrix member_partial(const std::vector<std::vector<Index>>& wants,
                           int member, Index total_rows, unsigned seed) {
  DenseMatrix partial(total_rows, kWidth);
  Rng rng(seed + static_cast<unsigned>(member));
  for (const Index row : wants[static_cast<std::size_t>(member)]) {
    for (Index j = 0; j < kWidth; ++j) partial(row, j) = rng.next_in(-1, 1);
  }
  return partial;
}

TEST_P(CollectiveSweep, AllgathervRowsDeliversSupportedRowsExactly) {
  const int g = GetParam();
  const Index total_rows = static_cast<Index>(g) * kBlockRows;
  DenseMatrix expected(total_rows, kWidth);
  for (int q = 0; q < g; ++q) {
    expected.place(member_block(q), static_cast<Index>(q) * kBlockRows, 0);
  }
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto wants = make_wants(regime, g, total_rows);
    for (const ReplicationMode mode :
         {ReplicationMode::Dense, ReplicationMode::SparseRows,
          ReplicationMode::Auto}) {
      run_spmd(g, [&](Comm& comm) {
        Group group(comm, all_ranks(g));
        const auto out =
            group.allgatherv_rows(member_block(comm.rank()), wants, mode);
        ASSERT_EQ(out.rows(), total_rows);
        const auto& mine =
            wants[static_cast<std::size_t>(comm.rank())];
        for (const Index row : mine) {
          for (Index j = 0; j < kWidth; ++j) {
            EXPECT_EQ(out(row, j), expected(row, j))
                << to_string(mode) << " row " << row;
          }
        }
        // The member's own block always arrives whole, free of charge.
        for (Index i = 0; i < kBlockRows; ++i) {
          const Index row = comm.rank() * kBlockRows + i;
          for (Index j = 0; j < kWidth; ++j) {
            EXPECT_EQ(out(row, j), expected(row, j));
          }
        }
      });
    }
  }
}

TEST_P(CollectiveSweep, AllgathervRowsWordCountsMatchThePlan) {
  const int g = GetParam();
  const Index total_rows = static_cast<Index>(g) * kBlockRows;
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto wants = make_wants(regime, g, total_rows);
    const auto total_words = [&](ReplicationMode mode) {
      auto stats = run_spmd(g, [&](Comm& comm) {
        PhaseScope scope(comm.stats(), Phase::Replication);
        Group group(comm, all_ranks(g));
        group.allgatherv_rows(member_block(comm.rank()), wants, mode);
      });
      std::uint64_t total = 0;
      for (int rank = 0; rank < g; ++rank) {
        total += stats.rank(rank).phase(Phase::Replication).words_sent;
      }
      return total;
    };
    const std::uint64_t dense_words =
        static_cast<std::uint64_t>(g) * static_cast<std::uint64_t>(g - 1) *
        kBlockRows * kWidth;
    const std::uint64_t plan_words =
        Group::sparse_plan_words(wants, kBlockRows, kWidth);
    EXPECT_EQ(total_words(ReplicationMode::Dense), dense_words);
    EXPECT_EQ(total_words(ReplicationMode::SparseRows), plan_words);
    // Auto decides on the plan's worst member, not group totals (see
    // AutoDecidesPerRankNotOnGroupTotals); the guaranteed property is
    // that it never moves more words than the dense ring.
    EXPECT_LE(total_words(ReplicationMode::Auto), dense_words);
  }
}

TEST_P(CollectiveSweep, ReduceScatterRowsBitIdenticalToDense) {
  const int g = GetParam();
  const Index total_rows = static_cast<Index>(g) * kBlockRows;
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto wants = make_wants(regime, g, total_rows);
    const auto run_mode = [&](ReplicationMode mode) {
      std::vector<DenseMatrix> chunks(static_cast<std::size_t>(g));
      run_spmd(g, [&](Comm& comm) {
        Group group(comm, all_ranks(g));
        chunks[static_cast<std::size_t>(comm.rank())] =
            group.reduce_scatter_rows(
                member_partial(wants, comm.rank(), total_rows, 800), wants,
                mode);
      });
      return chunks;
    };
    const auto dense = run_mode(ReplicationMode::Dense);
    for (const ReplicationMode mode :
         {ReplicationMode::SparseRows, ReplicationMode::Auto}) {
      const auto got = run_mode(mode);
      for (int rank = 0; rank < g; ++rank) {
        const auto& want = dense[static_cast<std::size_t>(rank)];
        const auto& have = got[static_cast<std::size_t>(rank)];
        ASSERT_EQ(have.rows(), want.rows());
        for (Index i = 0; i < want.rows(); ++i) {
          for (Index j = 0; j < want.cols(); ++j) {
            // Bit-identical, not merely close: the sparse fold follows
            // the dense ring's accumulation order.
            EXPECT_EQ(have(i, j), want(i, j))
                << to_string(mode) << " rank " << rank;
          }
        }
      }
    }
  }
}

/// True when the sorted `support` holds a row of member `block`'s block —
/// the row-sparse plans mail one message per such (sender, receiver)
/// pair and nothing for an empty intersection.
bool meets_block(const std::vector<Index>& support, int block) {
  const Index row0 = static_cast<Index>(block) * kBlockRows;
  const auto lo = std::lower_bound(support.begin(), support.end(), row0);
  return lo != support.end() && *lo < row0 + kBlockRows;
}

/// allgatherv_rows against the generic ring all-gather of the flattened
/// blocks, across every support regime (empty included) and mode: the
/// dense plan reproduces the ring bit for bit with identical per-rank
/// words and messages (one message per hop); the row-sparse plan
/// delivers the same bits on every row it ships and mails exactly one
/// message per non-empty (sender, receiver) pair.
TEST_P(CollectiveSweep, AllgathervRowsMatchesRingAllgather) {
  const int g = GetParam();
  const Index total_rows = static_cast<Index>(g) * kBlockRows;
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto wants = make_wants(regime, g, total_rows);
    std::vector<std::vector<Scalar>> ring(static_cast<std::size_t>(g));
    const auto ring_stats = run_spmd(g, [&](Comm& comm) {
      PhaseScope scope(comm.stats(), Phase::Replication);
      Group group(comm, all_ranks(g));
      ring[static_cast<std::size_t>(comm.rank())] =
          group.allgather(member_block(comm.rank()).data());
    });
    for (const ReplicationMode mode :
         {ReplicationMode::Dense, ReplicationMode::SparseRows}) {
      std::vector<DenseMatrix> got(static_cast<std::size_t>(g));
      const auto stats = run_spmd(g, [&](Comm& comm) {
        PhaseScope scope(comm.stats(), Phase::Replication);
        Group group(comm, all_ranks(g));
        got[static_cast<std::size_t>(comm.rank())] =
            group.allgatherv_rows(member_block(comm.rank()), wants, mode);
      });
      for (int rank = 0; rank < g; ++rank) {
        const auto& want = ring[static_cast<std::size_t>(rank)];
        const auto& have = got[static_cast<std::size_t>(rank)];
        ASSERT_EQ(have.rows(), total_rows);
        std::vector<char> shipped(static_cast<std::size_t>(total_rows),
                                  mode == ReplicationMode::Dense ? 1 : 0);
        for (Index i = 0; i < kBlockRows; ++i) {
          shipped[static_cast<std::size_t>(rank * kBlockRows + i)] = 1;
        }
        for (const Index row : wants[static_cast<std::size_t>(rank)]) {
          shipped[static_cast<std::size_t>(row)] = 1;
        }
        for (Index i = 0; i < total_rows; ++i) {
          for (Index j = 0; j < kWidth; ++j) {
            const Scalar expect =
                shipped[static_cast<std::size_t>(i)] != 0
                    ? want[static_cast<std::size_t>(i * kWidth + j)]
                    : Scalar{0};
            EXPECT_EQ(have(i, j), expect)
                << to_string(mode) << " rank " << rank << " row " << i;
          }
        }
        const auto& counters = stats.rank(rank).phase(Phase::Replication);
        if (mode == ReplicationMode::Dense) {
          const auto& ring_counters =
              ring_stats.rank(rank).phase(Phase::Replication);
          EXPECT_EQ(counters.words_sent, ring_counters.words_sent)
              << "rank " << rank;
          EXPECT_EQ(counters.messages_sent, ring_counters.messages_sent)
              << "rank " << rank;
        } else {
          std::uint64_t messages = 0;
          for (int t = 0; t < g; ++t) {
            if (t != rank && meets_block(wants[static_cast<std::size_t>(t)],
                                         rank)) {
              ++messages;
            }
          }
          EXPECT_EQ(counters.messages_sent, messages) << "rank " << rank;
        }
      }
    }
  }
}

/// reduce_scatter_rows against the generic ring reduce-scatter of the
/// flattened partial, across every support regime (empty included): the
/// dense plan reproduces it bit for bit with identical per-rank words
/// and messages (one message per hop), and the row-sparse plan — which
/// folds in the same order (see ReduceScatterRowsBitIdenticalToDense) —
/// mails exactly one message per non-empty (sender, receiver) pair.
TEST_P(CollectiveSweep, ReduceScatterRowsMatchesRingReduceScatter) {
  const int g = GetParam();
  const Index total_rows = static_cast<Index>(g) * kBlockRows;
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto wants = make_wants(regime, g, total_rows);
    std::vector<std::vector<Scalar>> ring(static_cast<std::size_t>(g));
    const auto ring_stats = run_spmd(g, [&](Comm& comm) {
      PhaseScope scope(comm.stats(), Phase::Replication);
      Group group(comm, all_ranks(g));
      ring[static_cast<std::size_t>(comm.rank())] = group.reduce_scatter(
          member_partial(wants, comm.rank(), total_rows, 900).data());
    });
    for (const ReplicationMode mode :
         {ReplicationMode::Dense, ReplicationMode::SparseRows}) {
      std::vector<DenseMatrix> got(static_cast<std::size_t>(g));
      const auto stats = run_spmd(g, [&](Comm& comm) {
        PhaseScope scope(comm.stats(), Phase::Replication);
        Group group(comm, all_ranks(g));
        got[static_cast<std::size_t>(comm.rank())] =
            group.reduce_scatter_rows(
                member_partial(wants, comm.rank(), total_rows, 900), wants,
                mode);
      });
      for (int rank = 0; rank < g; ++rank) {
        const auto& counters = stats.rank(rank).phase(Phase::Replication);
        if (mode == ReplicationMode::SparseRows) {
          // This member mails its own support, split by receiver block —
          // the transpose of the all-gather plan.
          std::uint64_t messages = 0;
          for (int t = 0; t < g; ++t) {
            if (t != rank && meets_block(wants[static_cast<std::size_t>(rank)],
                                         t)) {
              ++messages;
            }
          }
          EXPECT_EQ(counters.messages_sent, messages) << "rank " << rank;
          continue;
        }
        const auto& want = ring[static_cast<std::size_t>(rank)];
        const auto& have = got[static_cast<std::size_t>(rank)];
        ASSERT_EQ(have.rows(), kBlockRows);
        for (Index i = 0; i < kBlockRows; ++i) {
          for (Index j = 0; j < kWidth; ++j) {
            EXPECT_EQ(have(i, j),
                      want[static_cast<std::size_t>(i * kWidth + j)])
                << "rank " << rank;
          }
        }
        const auto& ring_counters =
            ring_stats.rank(rank).phase(Phase::Replication);
        EXPECT_EQ(counters.words_sent, ring_counters.words_sent)
            << "rank " << rank;
        EXPECT_EQ(counters.messages_sent, ring_counters.messages_sent)
            << "rank " << rank;
      }
    }
  }
}

/// Column-support compressed shift hops (Group::sendrecv_cols): a full
/// ring exchange where every member ships its block's supported rows to
/// its left neighbour. Received rows must equal the sender's block on
/// the support and zero elsewhere, and the word counts must pin to the
/// [count, cols..., values...] plan — including the empty support, which
/// sends nothing at all.
TEST_P(CollectiveSweep, SendrecvColsDeliversSupportAndPinsWords) {
  const int g = GetParam();
  // Per-pair support lists: what member (t+1) % g ships to member t —
  // i.e. hop_rows[t] is the support of the hop RECEIVED by member t.
  for (const Support regime :
       {Support::Empty, Support::SingleRow, Support::Full}) {
    const auto hop_rows = make_wants(regime, g, kBlockRows);
    for (const PropagationMode mode :
         {PropagationMode::Dense, PropagationMode::SparseCols,
          PropagationMode::Auto}) {
      auto stats = run_spmd(g, [&](Comm& comm) {
        PhaseScope scope(comm.stats(), Phase::Propagation);
        Group group(comm, all_ranks(g));
        const int pos = group.pos();
        const int to = (pos - 1 + g) % g;
        const int from = (pos + 1) % g;
        const auto& send_rows =
            hop_rows[static_cast<std::size_t>(to)];
        const auto& recv_rows =
            hop_rows[static_cast<std::size_t>(pos)];
        const auto landed = group.sendrecv_cols(
            to, from, member_block(pos), send_rows, recv_rows, mode);
        const auto want = member_block(from);
        ASSERT_EQ(landed.rows(), kBlockRows);
        std::vector<char> on_support(static_cast<std::size_t>(kBlockRows),
                                     0);
        if (mode == PropagationMode::Dense ||
            (mode == PropagationMode::Auto &&
             !sparse_cols_hop_wins(recv_rows.size(), kBlockRows,
                                   kWidth))) {
          std::fill(on_support.begin(), on_support.end(), 1);
        } else {
          for (const Index row : recv_rows) {
            on_support[static_cast<std::size_t>(row)] = 1;
          }
        }
        for (Index i = 0; i < kBlockRows; ++i) {
          for (Index j = 0; j < kWidth; ++j) {
            const Scalar expect =
                on_support[static_cast<std::size_t>(i)] != 0 ? want(i, j)
                                                             : Scalar{0};
            EXPECT_EQ(landed(i, j), expect)
                << to_string(mode) << " row " << i;
          }
        }
      });
      const std::uint64_t dense_hop_words =
          static_cast<std::uint64_t>(kBlockRows) * kWidth;
      for (int rank = 0; rank < g; ++rank) {
        if (g == 1) break; // self-exchange still moves one message here
        const auto& rows = hop_rows[static_cast<std::size_t>(
            (rank - 1 + g) % g)]; // what this rank SENDS
        std::uint64_t want_words = dense_hop_words;
        if (mode == PropagationMode::SparseCols ||
            (mode == PropagationMode::Auto &&
             sparse_cols_hop_wins(rows.size(), kBlockRows, kWidth))) {
          want_words = sparse_cols_words(rows.size(), kWidth);
        }
        EXPECT_EQ(stats.rank(rank).phase(Phase::Propagation).words_sent,
                  want_words)
            << to_string(mode) << " rank " << rank;
        // The enforced invariant behind Auto: never more than dense
        // (explicit SparseCols, like SparseRows, may exceed it — a full
        // support costs the extra index words).
        if (mode != PropagationMode::SparseCols) {
          EXPECT_LE(stats.rank(rank).phase(Phase::Propagation).words_sent,
                    dense_hop_words);
        }
      }
    }
  }
}

/// The cols-block wire triple directly: pack produces exactly
/// sparse_cols_words words, unpack restores the dense payload with
/// zeros off-support, and the empty support ships nothing — the
/// pack/unpack/words lockstep dsk_lint's P1 check requires a test to
/// pin.
TEST(ColsBlockWire, PackUnpackWordsStayInLockstep) {
  const auto dense = pack_dense(member_block(3));
  const std::vector<Index> support = {0, 2, 5};
  const auto packed =
      pack_cols_block(dense, kBlockRows, kWidth, support);
  EXPECT_EQ(packed.size(), sparse_cols_words(support.size(), kWidth));
  const auto restored =
      unpack_cols_block(packed, kBlockRows, kWidth, support);
  const auto want = member_block(3);
  const auto got = unpack_dense(restored, kBlockRows, kWidth);
  std::vector<char> on_support(static_cast<std::size_t>(kBlockRows), 0);
  for (const Index row : support) {
    on_support[static_cast<std::size_t>(row)] = 1;
  }
  for (Index i = 0; i < kBlockRows; ++i) {
    for (Index j = 0; j < kWidth; ++j) {
      const Scalar expect = on_support[static_cast<std::size_t>(i)] != 0
                                ? want(i, j)
                                : Scalar{0};
      EXPECT_EQ(got(i, j), expect) << "row " << i << " col " << j;
    }
  }

  // Empty support: the packer still emits its count header, but the
  // wire cost is zero because every caller skips the hop outright —
  // which is exactly what sparse_cols_words(0, w) == 0 accounts for.
  const std::vector<Index> empty;
  const auto empty_packed = pack_cols_block(dense, kBlockRows, kWidth, empty);
  EXPECT_EQ(empty_packed.size(), 1u);
  EXPECT_EQ(empty_packed.front(), 0u);
  EXPECT_EQ(sparse_cols_words(0, kWidth), 0u);
  const auto empty_restored =
      unpack_cols_block(empty_packed, kBlockRows, kWidth, empty);
  EXPECT_TRUE(std::all_of(empty_restored.begin(), empty_restored.end(),
                          [](std::uint64_t w) { return w == 0; }));

  // Truncated and trailing-garbage messages are rejected.
  auto corrupt = packed;
  corrupt.pop_back();
  EXPECT_THROW(unpack_cols_block(corrupt, kBlockRows, kWidth, support),
               Error);
  corrupt = packed;
  corrupt.push_back(0);
  EXPECT_THROW(unpack_cols_block(corrupt, kBlockRows, kWidth, support),
               Error);
}

TEST(SparseCollectives, AutoDecidesPerRankNotOnGroupTotals) {
  // Skewed supports: member 0 wants EVERY row, member 1 wants nothing.
  // The group-total sparse words (1 + 6*(3+1) = 25) undercut the dense
  // ring total (2 * 6*3 = 36), but member 1 alone would send 25 > its
  // 18-word dense share. Auto must therefore stay dense — the enforced
  // invariant is max-PER-RANK words <= Dense, and a total-words
  // crossover would violate it exactly here.
  const int g = 2;
  std::vector<std::vector<Index>> wants(2);
  wants[0].resize(static_cast<std::size_t>(g) * kBlockRows);
  std::iota(wants[0].begin(), wants[0].end(), Index{0});
  for (const ReplicationMode mode :
       {ReplicationMode::Dense, ReplicationMode::Auto}) {
    auto stats = run_spmd(g, [&](Comm& comm) {
      PhaseScope scope(comm.stats(), Phase::Replication);
      Group group(comm, all_ranks(g));
      group.allgatherv_rows(member_block(comm.rank()), wants, mode);
    });
    for (int rank = 0; rank < g; ++rank) {
      EXPECT_EQ(stats.rank(rank).phase(Phase::Replication).words_sent,
                static_cast<std::uint64_t>(kBlockRows) * kWidth)
          << to_string(mode) << " rank " << rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),
                         [](const auto& param_info) {
                           std::string name = "g";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(OverlapModel, BoundedByBulkSynchronous) {
  // overlap time <= bulk-synchronous time, and >= replication + the
  // larger of the two overlapped phases for a single-rank world.
  auto stats = run_spmd(2, [](Comm& comm) {
    {
      PhaseScope scope(comm.stats(), Phase::Propagation);
      if (comm.rank() == 0) {
        comm.send<Scalar>(1, kTagUser, std::vector<Scalar>(1000, 1.0));
      } else {
        comm.recv<Scalar>(0, kTagUser);
      }
    }
    PhaseScope scope(comm.stats(), Phase::Computation);
    comm.stats().add_flops(5000);
  });
  const MachineModel m{0.0, 1e-9, 1e-9};
  const double bulk = stats.modeled_kernel_seconds(m);
  const double overlap = stats.modeled_overlap_seconds(m);
  EXPECT_LE(overlap, bulk);
  // prop = 1000e-9 on both ends, comp = 5000e-9: overlap = max = 5e-6.
  EXPECT_NEAR(overlap, 5.0e-6, 1e-12);
  EXPECT_NEAR(bulk, 6.0e-6, 1e-12);
}

} // namespace
} // namespace dsk
