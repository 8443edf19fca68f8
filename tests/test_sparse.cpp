#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/partition.hpp"
#include "sparse/permute.hpp"

namespace dsk {
namespace {

CooMatrix small_coo() {
  CooMatrix coo(3, 4);
  coo.push_back(0, 1, 1.0);
  coo.push_back(2, 3, 2.0);
  coo.push_back(1, 0, 3.0);
  coo.push_back(0, 3, 4.0);
  return coo;
}

TEST(Coo, BoundsChecked) {
  CooMatrix coo(2, 2);
  EXPECT_THROW(coo.push_back(2, 0, 1.0), Error);
  EXPECT_THROW(coo.push_back(0, -1, 1.0), Error);
}

TEST(Coo, SortAndCombine) {
  CooMatrix coo(2, 2);
  coo.push_back(1, 1, 1.0);
  coo.push_back(0, 0, 2.0);
  coo.push_back(1, 1, 3.0); // duplicate -> summed
  coo.sort_and_combine();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_TRUE(coo.is_sorted_unique());
  EXPECT_EQ(coo.entry(0).value, 2.0);
  EXPECT_EQ(coo.entry(1).value, 4.0);
}

TEST(Coo, TransposeSwapsCoordinates) {
  auto coo = small_coo();
  const auto t = coo.transposed();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.nnz(), coo.nnz());
}

TEST(Coo, BlockExtractsAndRebases) {
  auto coo = small_coo();
  coo.sort_and_combine();
  const auto block = coo.block(0, 2, 1, 4);
  EXPECT_EQ(block.rows(), 2);
  EXPECT_EQ(block.cols(), 3);
  // Entries (0,1), (0,3) qualify; (1,0) and (2,3) do not.
  EXPECT_EQ(block.nnz(), 2);
  EXPECT_EQ(block.entry(0).col, 0); // was col 1
}

TEST(Csr, ConversionRoundTrip) {
  auto coo = small_coo();
  coo.sort_and_combine();
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), coo.nnz());
  EXPECT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_nnz(1), 1);
  EXPECT_EQ(csr.row_nnz(2), 1);
  const auto back = csr_to_coo(csr);
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (Index k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.entry(k).row, coo.entry(k).row);
    EXPECT_EQ(back.entry(k).col, coo.entry(k).col);
    EXPECT_EQ(back.entry(k).value, coo.entry(k).value);
  }
}

TEST(Csr, ValidatesStructure) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), Error);       // bad ptr len
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               Error);                                            // decreasing
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 5}, {1.0, 2.0}),
               Error);                                            // col range
}

TEST(Csr, TransposeMatchesCooTranspose) {
  Rng rng(21);
  CooMatrix coo(16, 24);
  for (int k = 0; k < 60; ++k) {
    coo.push_back(rng.next_index(0, 16), rng.next_index(0, 24),
                  rng.next_in(-1, 1));
  }
  coo.sort_and_combine();
  const auto direct = transpose(coo_to_csr(coo));
  auto via_coo = coo.transposed();
  via_coo.sort_and_combine();
  const auto expected = coo_to_csr(via_coo);
  EXPECT_TRUE(same_pattern(direct, expected));
  EXPECT_EQ(max_abs_value_diff(direct, expected), 0.0);
}

TEST(MatrixMarket, RoundTrip) {
  auto coo = small_coo();
  coo.sort_and_combine();
  std::stringstream stream;
  write_matrix_market(stream, coo);
  const auto back = read_matrix_market(stream);
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (Index k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.entry(k).row, coo.entry(k).row);
    EXPECT_EQ(back.entry(k).col, coo.entry(k).col);
    EXPECT_DOUBLE_EQ(back.entry(k).value, coo.entry(k).value);
  }
}

TEST(MatrixMarket, ReadsSymmetricAndPattern) {
  std::stringstream stream(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment line\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const auto coo = read_matrix_market(stream);
  // (2,1) mirrored to (1,2); (3,3) diagonal not mirrored.
  EXPECT_EQ(coo.nnz(), 3);
  EXPECT_EQ(coo.entry(0).value, 1.0);
}

TEST(MatrixMarket, FileRoundTrip) {
  Rng rng(77);
  CooMatrix coo(20, 30);
  for (int k = 0; k < 50; ++k) {
    coo.push_back(rng.next_index(0, 20), rng.next_index(0, 30),
                  rng.next_in(-5, 5));
  }
  coo.sort_and_combine();
  const std::string path = ::testing::TempDir() + "/dsk_roundtrip.mtx";
  write_matrix_market_file(path, coo);
  const auto back = read_matrix_market_file(path);
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (Index k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.entry(k).row, coo.entry(k).row);
    EXPECT_EQ(back.entry(k).col, coo.entry(k).col);
    EXPECT_DOUBLE_EQ(back.entry(k).value, coo.entry(k).value);
  }
  EXPECT_THROW(read_matrix_market_file("/nonexistent/nowhere.mtx"), Error);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  std::stringstream bad_banner("%%NotMatrixMarket matrix\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_banner), Error);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 5.0\n");
  EXPECT_THROW(read_matrix_market(truncated), Error);
  // Entry counts beyond rows * cols are structured errors, not an
  // attempt to reserve the claimed size (std::bad_alloc) or a doubled
  // symmetric count that overflows (std::length_error).
  std::stringstream huge_count(
      "%%MatrixMarket matrix coordinate real general\n2 2 100000000000\n");
  EXPECT_THROW(read_matrix_market(huge_count), Error);
  std::stringstream overflowing_count(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4611686018427387904\n");
  EXPECT_THROW(read_matrix_market(overflowing_count), Error);
  // A count within rows * cols but far beyond the entries present fails
  // on the missing lines, without a header-sized allocation.
  std::stringstream short_file(
      "%%MatrixMarket matrix coordinate real general\n"
      "100000 100000 10000000000\n1 1 5.0\n");
  EXPECT_THROW(read_matrix_market(short_file), Error);
}

TEST(MatrixMarket, RejectsOutOfRangeIndices) {
  // A corrupt file with i > rows (or i < 1) used to flow 0-based
  // negative/overflowing indices straight into CooMatrix.
  const auto with_entry = [](const std::string& entry) {
    return "%%MatrixMarket matrix coordinate real general\n3 4 1\n" +
           entry + "\n";
  };
  for (const char* entry :
       {"0 1 5.0", "4 1 5.0", "-1 1 5.0", "1 0 5.0", "1 5 5.0",
        "1 -2 5.0"}) {
    std::stringstream stream(with_entry(entry));
    EXPECT_THROW(read_matrix_market(stream), Error) << entry;
  }
  // Boundary indices (1-based, inclusive) are valid.
  std::stringstream ok(with_entry("3 4 5.0"));
  const auto coo = read_matrix_market(ok);
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_EQ(coo.entry(0).row, 2);
  EXPECT_EQ(coo.entry(0).col, 3);
}

TEST(MatrixMarket, RoundTripIsBitExact) {
  // Values chosen to break any sub-max_digits10 formatting: non-terminating
  // binary fractions, denormal-adjacent magnitudes, negative zero, and
  // long decimal tails. The writer emits max_digits10 significant
  // digits, so the reader must reproduce every bit.
  CooMatrix coo(4, 4);
  coo.push_back(0, 0, 1.0 / 3.0);
  coo.push_back(0, 3, -0.0);
  coo.push_back(1, 1, 0.1);
  coo.push_back(2, 2, 3.141592653589793);
  coo.push_back(2, 3, 1e-300);
  coo.push_back(3, 0, -2.2250738585072014e-308);
  coo.push_back(3, 3, 0.49999999999999994);
  coo.sort_and_combine();
  std::stringstream stream;
  write_matrix_market(stream, coo);
  const auto back = read_matrix_market(stream);
  ASSERT_EQ(back.nnz(), coo.nnz());
  for (Index k = 0; k < coo.nnz(); ++k) {
    const auto want = coo.entry(k).value;
    const auto have = back.entry(k).value;
    std::uint64_t want_bits = 0, have_bits = 0;
    std::memcpy(&want_bits, &want, sizeof want);
    std::memcpy(&have_bits, &have, sizeof have);
    EXPECT_EQ(have_bits, want_bits) << "entry " << k << " value " << want;
  }
}

TEST(MatrixMarket, RejectsTrailingGarbage) {
  // Extra tokens on the size line...
  std::stringstream bad_size(
      "%%MatrixMarket matrix coordinate real general\n3 3 1 junk\n"
      "1 1 5.0\n");
  EXPECT_THROW(read_matrix_market(bad_size), Error);
  // ...and on entry lines ("1 2 3.0 junk" used to parse): real,
  std::stringstream bad_entry(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n"
      "1 2 3.0 junk\n");
  EXPECT_THROW(read_matrix_market(bad_entry), Error);
  // a fourth numeric field (a plausible corrupt-concatenation case),
  std::stringstream extra_number(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n"
      "1 2 3.0 4.0\n");
  EXPECT_THROW(read_matrix_market(extra_number), Error);
  // and a value on a pattern entry (pattern files carry none).
  std::stringstream pattern_value(
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n"
      "1 2 7.0\n");
  EXPECT_THROW(read_matrix_market(pattern_value), Error);
  // Trailing whitespace alone stays valid.
  std::stringstream spaces(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n"
      "1 2 3.0   \n");
  EXPECT_EQ(read_matrix_market(spaces).nnz(), 1);
}

TEST(MatrixMarket, RejectsBlankEntryLines) {
  std::stringstream blank_middle(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n"
      "1 1 5.0\n\n2 2 1.0\n");
  EXPECT_THROW(read_matrix_market(blank_middle), Error);
  std::stringstream blank_only(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n \n");
  EXPECT_THROW(read_matrix_market(blank_only), Error);
}

TEST(Permute, PermutationIsBijection) {
  Rng rng(3);
  const auto perm = random_permutation(100, rng);
  const auto inv = inverse_permutation(perm);
  for (Index i = 0; i < 100; ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(
                  perm[static_cast<std::size_t>(i)])],
              i);
  }
}

TEST(Permute, PreservesValuesAndDegrees) {
  Rng rng(5);
  auto coo = small_coo();
  coo.sort_and_combine();
  const auto permuted = random_permute(coo, rng);
  EXPECT_EQ(permuted.matrix.nnz(), coo.nnz());
  // Applying the inverse permutations restores the original.
  const auto restored =
      permute(permuted.matrix, inverse_permutation(permuted.row_perm),
              inverse_permutation(permuted.col_perm));
  for (Index k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(restored.entry(k).row, coo.entry(k).row);
    EXPECT_EQ(restored.entry(k).col, coo.entry(k).col);
    EXPECT_EQ(restored.entry(k).value, coo.entry(k).value);
  }
}

TEST(PartitionUniform, CoversRangeEvenly) {
  const auto bounds = partition_uniform(10, 4);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), 10);
  for (std::size_t p = 0; p + 1 < bounds.size(); ++p) {
    const Index len = bounds[p + 1] - bounds[p];
    EXPECT_GE(len, 2);
    EXPECT_LE(len, 3);
  }
  EXPECT_EQ(partition_uniform(0, 3), (std::vector<Index>{0, 0, 0, 0}));
}

} // namespace
} // namespace dsk
