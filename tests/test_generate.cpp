#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "dist/shards.hpp"
#include "runtime/fault.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

TEST(ErdosRenyi, ExactRowDegrees) {
  Rng rng(1);
  const auto s = erdos_renyi_fixed_row(64, 256, 8, rng);
  EXPECT_EQ(s.nnz(), 64 * 8);
  std::vector<int> degree(64, 0);
  for (Index k = 0; k < s.nnz(); ++k) {
    degree[static_cast<std::size_t>(s.entry(k).row)]++;
  }
  for (const int d : degree) EXPECT_EQ(d, 8);
  EXPECT_TRUE(s.is_sorted_unique());
}

TEST(ErdosRenyi, DenseRowsFallBackToFisherYates) {
  Rng rng(2);
  // nnz_per_row * 4 >= cols triggers the partial-shuffle path.
  const auto s = erdos_renyi_fixed_row(8, 16, 8, rng);
  EXPECT_EQ(s.nnz(), 64);
  std::vector<int> degree(8, 0);
  for (Index k = 0; k < s.nnz(); ++k) {
    degree[static_cast<std::size_t>(s.entry(k).row)]++;
  }
  for (const int d : degree) EXPECT_EQ(d, 8);
}

TEST(ErdosRenyi, RejectsImpossibleDegree) {
  Rng rng(3);
  EXPECT_THROW(erdos_renyi_fixed_row(4, 4, 5, rng), Error);
}

TEST(ErdosRenyi, RejectsNnzCountOverflow) {
  // rows * nnz_per_row would overflow Index; the guard must fire before
  // the reserve call requests an absurd allocation.
  Rng rng(4);
  const Index huge = Index{1} << 33;
  EXPECT_THROW(erdos_renyi_fixed_row(huge, huge, huge / 2, rng), Error);
}

TEST(ErdosRenyi, GoldenChecksumIsPlatformIndependent) {
  // The generator used to pair values with columns in unordered_set
  // iteration order, which follows the standard library's hashing — the
  // same seed produced different matrices on different platforms,
  // poisoning committed bench baselines. The (column, value) pairing is
  // now canonical (columns sorted before values are drawn), so this
  // FNV-1a checksum over (row, col, value-bits) must match everywhere.
  // If it changes, the generator's output changed — regenerate the
  // committed BENCH_*.json baselines in the same commit.
  Rng rng(42);
  const auto s = erdos_renyi_fixed_row(64, 256, 8, rng);
  ASSERT_EQ(s.nnz(), 512);
  std::uint64_t h = 1469598103934665603ULL; // FNV-1a offset basis
  const auto mix = [&](std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ULL;
  };
  for (Index k = 0; k < s.nnz(); ++k) {
    const auto e = s.entry(k);
    mix(static_cast<std::uint64_t>(e.row));
    mix(static_cast<std::uint64_t>(e.col));
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof e.value);
    std::memcpy(&bits, &e.value, sizeof bits);
    mix(bits);
  }
  EXPECT_EQ(h, 15264477148247865280ULL);
}

TEST(ErdosRenyi, SeedDeterminism) {
  Rng a(7), b(7);
  const auto x = erdos_renyi_fixed_row(32, 64, 4, a);
  const auto y = erdos_renyi_fixed_row(32, 64, 4, b);
  ASSERT_EQ(x.nnz(), y.nnz());
  for (Index k = 0; k < x.nnz(); ++k) {
    EXPECT_EQ(x.entry(k).row, y.entry(k).row);
    EXPECT_EQ(x.entry(k).col, y.entry(k).col);
    EXPECT_EQ(x.entry(k).value, y.entry(k).value);
  }
}

TEST(Rmat, ProducesSkewedDegrees) {
  Rng rng(13);
  const auto s = rmat(1 << 12, 1 << 12, 1 << 15, rng);
  EXPECT_GT(s.nnz(), (1 << 15) * 0.8); // duplicates combine
  std::vector<Index> degree(1 << 12, 0);
  for (Index k = 0; k < s.nnz(); ++k) {
    degree[static_cast<std::size_t>(s.entry(k).row)]++;
  }
  const Index max_degree = *std::max_element(degree.begin(), degree.end());
  const double mean_degree =
      static_cast<double>(s.nnz()) / static_cast<double>(1 << 12);
  // Power-law-ish: hub degree far above the mean (uniform ER would
  // concentrate near the mean).
  EXPECT_GT(static_cast<double>(max_degree), 5.0 * mean_degree);
}

TEST(Rmat, RespectsRectangularShape) {
  Rng rng(14);
  const auto s = rmat(100, 300, 2000, rng);
  EXPECT_EQ(s.rows(), 100);
  EXPECT_EQ(s.cols(), 300);
  for (Index k = 0; k < s.nnz(); ++k) {
    EXPECT_LT(s.entry(k).row, 100);
    EXPECT_LT(s.entry(k).col, 300);
  }
}

TEST(Phi, MatchesDefinition) {
  Rng rng(15);
  const auto s = erdos_renyi_fixed_row(64, 128, 4, rng);
  // phi = nnz / (n*r) = 64*4 / (128*16) = 0.125
  EXPECT_DOUBLE_EQ(phi_ratio(s, 16), 0.125);
  EXPECT_THROW(phi_ratio(s, 0), Error);
}

/// Golden checksums of the generators' packed-triplet output. The
/// rejection path of erdos_renyi_fixed_row collects its columns in an
/// unordered_set whose ITERATION order is stdlib-dependent; the
/// canonical copy-then-sort (generate.cpp) makes the (column, value)
/// pairing platform-independent, and these constants pin that: if any
/// stdlib-ordered structure leaks back into the draw sequence, the
/// checksum moves and this fails — the dsk_lint D1 bug class, caught at
/// test time rather than as a poisoned committed bench baseline.
TEST(GeneratorDeterminism, GoldenChecksumsPinStdlibIndependence) {
  const auto checksum = [](const CooMatrix& s) {
    Triplets t;
    for (Index k = 0; k < s.nnz(); ++k) {
      t.rows.push_back(s.entry(k).row);
      t.cols.push_back(s.entry(k).col);
      t.values.push_back(s.entry(k).value);
    }
    const auto words = pack_triplets(t);
    return fnv1a_words(words.data(), words.size());
  };

  Rng er_rng(42);
  const auto er = erdos_renyi_fixed_row(64, 4096, 8, er_rng);
  EXPECT_EQ(checksum(er), 0x0831bcbbd3b086e1ull);

  Rng rmat_rng(42);
  const auto rm = rmat(1 << 10, 1 << 10, 4096, rmat_rng);
  EXPECT_EQ(checksum(rm), 0x41297fedfd8408d6ull);
}

} // namespace
} // namespace dsk
