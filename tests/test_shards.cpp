#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/shards.hpp"

namespace dsk {
namespace {

TEST(Shards, TripletsRoundTrip) {
  Triplets t;
  t.rows = {3, 1, 4};
  t.cols = {1, 5, 9};
  t.values = {2.5, -6.25, 0.0};
  const auto words = pack_triplets(t);
  // 3 words per nonzero + 1 count header: the paper's COO wire cost.
  EXPECT_EQ(words.size(), 3 * 3 + 1);
  const auto back = unpack_triplets(words);
  EXPECT_EQ(back.rows, t.rows);
  EXPECT_EQ(back.cols, t.cols);
  EXPECT_EQ(back.values, t.values);
}

TEST(Shards, EmptyTripletsAreOneWord) {
  const auto words = pack_triplets(Triplets{});
  EXPECT_EQ(words.size(), 1u);
  EXPECT_EQ(unpack_triplets(words).size(), 0u);
}

// Each wire format's *_words cost function must equal the packed
// message size exactly — the pack/unpack/words lockstep dsk_lint's P1
// check requires a test to pin.
TEST(Shards, WordsFunctionsMatchPackedSizes) {
  Triplets t;
  t.rows = {0, 2, 2, 5};
  t.cols = {1, 0, 3, 2};
  t.values = {1.0, -2.0, 3.5, 0.25};
  EXPECT_EQ(pack_triplets(t).size(), triplets_words(t.size()));
  EXPECT_EQ(triplets_words(0), 1u);
  EXPECT_EQ(triplets_words(4), 13u);

  DenseMatrix m(3, 5);
  EXPECT_EQ(pack_dense(m).size(), dense_words(3, 5));
  EXPECT_EQ(dense_words(0, 7), 0u);

  const std::vector<Scalar> values = {1.0, 2.0, 3.0};
  EXPECT_EQ(pack_values(values).size(), values_words(values.size()));
  EXPECT_EQ(values_words(0), 0u);
}

TEST(Shards, TripletsRejectCorruptMessages) {
  Triplets t;
  t.rows = {1};
  t.cols = {2};
  t.values = {3.0};
  auto words = pack_triplets(t);
  words.push_back(0); // trailing garbage
  EXPECT_THROW(unpack_triplets(words), Error);
  MessageWords truncated(words.begin(), words.begin() + 2);
  EXPECT_THROW(unpack_triplets(truncated), Error);
}

TEST(Shards, DenseRoundTripPreservesLayout) {
  Rng rng(5);
  DenseMatrix m(7, 3);
  m.fill_random(rng);
  const auto words = pack_dense(m);
  EXPECT_EQ(words.size(), 21u); // values only; shape travels out of band
  const auto back = unpack_dense(words, 7, 3);
  EXPECT_EQ(back.max_abs_diff(m), 0.0);
  EXPECT_THROW(unpack_dense(words, 7, 4), Error);
}

TEST(Shards, ValuesRoundTrip) {
  const std::vector<Scalar> values{1.0, -2.0, 1e-300, 4e300};
  const auto words = pack_values(values);
  EXPECT_EQ(unpack_values(words, static_cast<std::int64_t>(values.size()),
                          WireCodec{}),
            values);
}

TEST(Shards, MismatchedTripletArraysRejected) {
  Triplets t;
  t.rows = {1, 2};
  t.cols = {3};
  t.values = {1.0};
  EXPECT_THROW(pack_triplets(t), Error);
}

TEST(Shards, RowSupportListsExactlyTheNonEmptyRows) {
  // 2 buckets by column parity over a 4 x 4 matrix.
  CooMatrix coo(4, 4);
  coo.push_back(0, 0, 1.0);
  coo.push_back(0, 2, 2.0);
  coo.push_back(1, 1, 3.0);
  coo.push_back(3, 0, 4.0);
  coo.sort_and_combine();
  const auto shards = shard_coo(
      coo, 2, [](Index, Index col) { return static_cast<int>(col % 2); },
      [](Index row, Index col) {
        return std::pair<Index, Index>(row, col / 2);
      },
      [](int) { return std::pair<Index, Index>(4, 2); });
  EXPECT_EQ(shards[0].row_support, (std::vector<Index>{0, 3}));
  EXPECT_EQ(shards[1].row_support, (std::vector<Index>{1}));
  EXPECT_EQ(union_row_support({&shards[0], &shards[1]}, 4),
            (std::vector<Index>{0, 1, 3}));
  EXPECT_TRUE(union_row_support({}, 4).empty());
}

} // namespace
} // namespace dsk
