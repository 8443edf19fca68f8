#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dense/dense_matrix.hpp"
#include "dense/dense_ops.hpp"

namespace dsk {
namespace {

TEST(DenseMatrix, ZeroInitialized) {
  DenseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_EQ(m(i, j), 0.0);
    }
  }
}

TEST(DenseMatrix, NegativeDimensionsThrowBeforeAllocating) {
  // A negative product cast to size_t is astronomically large; the ctor
  // must reject the dimensions cleanly instead of attempting the
  // allocation.
  EXPECT_THROW(DenseMatrix(-1, 4), Error);
  EXPECT_THROW(DenseMatrix(4, -1), Error);
  EXPECT_THROW(DenseMatrix(-3, -5), Error);
}

TEST(DenseMatrix, ValueConstructorRejectsNegativeDimensions) {
  // (-1) x (-6) has the right product for 6 values; the shape is still
  // invalid and must be rejected before the count is compared.
  EXPECT_THROW(DenseMatrix(-1, -6, std::vector<Scalar>(6, 1.0)), Error);
  EXPECT_THROW(DenseMatrix(2, 3, std::vector<Scalar>(5, 1.0)), Error);
  const DenseMatrix ok(2, 3, std::vector<Scalar>(6, 1.5));
  EXPECT_EQ(ok(1, 2), 1.5);
}

TEST(DenseMatrix, UninitializedHasTheShapeAndIsPoisonedInDebug) {
  auto m = DenseMatrix::uninitialized(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.data().size(), 15u);
#ifndef NDEBUG
  for (const Scalar x : m.data()) EXPECT_TRUE(std::isnan(x));
#endif
  EXPECT_THROW(DenseMatrix::uninitialized(-1, 2), Error);
}

TEST(DenseMatrix, MovedFromMatrixIsEmpty) {
  DenseMatrix m(3, 4);
  const DenseMatrix taken = std::move(m);
  EXPECT_EQ(taken.rows(), 3);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the
  // property under test.
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.data().empty());
  // NOLINTEND(bugprone-use-after-move)
}

TEST(DenseMatrix, RowViewsAlias) {
  DenseMatrix m(2, 3);
  m.row(1)[2] = 5.5;
  EXPECT_EQ(m(1, 2), 5.5);
}

TEST(DenseMatrix, RowAndColBlocks) {
  DenseMatrix m(4, 4);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 4; ++j) {
      m(i, j) = static_cast<Scalar>(10 * i + j);
    }
  }
  const auto rows = m.row_block(1, 3);
  EXPECT_EQ(rows.rows(), 2);
  EXPECT_EQ(rows(0, 0), 10.0);
  EXPECT_EQ(rows(1, 3), 23.0);
  const auto cols = m.col_block(2, 4);
  EXPECT_EQ(cols.cols(), 2);
  EXPECT_EQ(cols(0, 0), 2.0);
  EXPECT_EQ(cols(3, 1), 33.0);
  EXPECT_THROW(m.row_block(3, 5), Error);
  EXPECT_THROW(m.col_block(-1, 2), Error);
}

TEST(DenseMatrix, PlaceWritesSubmatrix) {
  DenseMatrix big(4, 4);
  DenseMatrix small(2, 2);
  small(0, 0) = 1;
  small(1, 1) = 2;
  big.place(small, 1, 2);
  EXPECT_EQ(big(1, 2), 1.0);
  EXPECT_EQ(big(2, 3), 2.0);
  EXPECT_EQ(big(0, 0), 0.0);
  EXPECT_THROW(big.place(small, 3, 3), Error);
  // Negative offsets would write before the buffer.
  EXPECT_THROW(big.place(small, -1, 0), Error);
  EXPECT_THROW(big.place(small, 0, -1), Error);
}

TEST(DenseMatrix, NormAndDiff) {
  DenseMatrix m(1, 2);
  m(0, 0) = 3;
  m(0, 1) = 4;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  DenseMatrix other(1, 2);
  other(0, 0) = 3.5;
  other(0, 1) = 4;
  EXPECT_DOUBLE_EQ(m.max_abs_diff(other), 0.5);
}

TEST(DenseMatrix, MaxAbsDiffSeesNaN) {
  const Scalar nan = std::numeric_limits<Scalar>::quiet_NaN();
  DenseMatrix clean(1, 3), poisoned(1, 3);
  clean(0, 1) = 2.0;
  poisoned(0, 1) = 2.0;
  poisoned(0, 2) = nan;
  // A NaN on either side is a difference, never distance 0.
  EXPECT_TRUE(std::isnan(clean.max_abs_diff(poisoned)));
  EXPECT_TRUE(std::isnan(poisoned.max_abs_diff(clean)));
  EXPECT_NE(clean.max_abs_diff(poisoned), 0.0);
  EXPECT_FALSE(poisoned.max_abs_diff(clean) < 1e-9);
  // Identical NaN bits are bit-identical entries: distance 0.
  DenseMatrix same(1, 3);
  same(0, 1) = 2.0;
  same(0, 2) = nan;
  EXPECT_EQ(poisoned.max_abs_diff(same), 0.0);
  // Infinities of the same sign match; of opposite signs they differ.
  DenseMatrix inf(1, 1), neg_inf(1, 1);
  inf(0, 0) = std::numeric_limits<Scalar>::infinity();
  neg_inf(0, 0) = -inf(0, 0);
  EXPECT_EQ(inf.max_abs_diff(inf), 0.0);
  EXPECT_EQ(inf.max_abs_diff(neg_inf),
            std::numeric_limits<Scalar>::infinity());
}

TEST(DenseMatrix, FillRandomDeterministic) {
  Rng a(9), b(9);
  DenseMatrix x(8, 8), y(8, 8);
  x.fill_random(a);
  y.fill_random(b);
  EXPECT_EQ(x.max_abs_diff(y), 0.0);
}

TEST(DenseOps, GemmMatchesManual) {
  DenseMatrix x(2, 3), y(3, 2), c(2, 2);
  Scalar v = 1;
  for (auto& e : x.data()) e = v++;
  for (auto& e : y.data()) e = v++;
  gemm(x, y, c);
  // x = [1 2 3; 4 5 6], y = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(DenseOps, GemmTransposedOperands) {
  Rng rng(4);
  DenseMatrix x(3, 5), y(3, 4);
  x.fill_random(rng);
  y.fill_random(rng);
  // xT . y via flag must equal transpose(x) . y computed explicitly.
  DenseMatrix via_flag(5, 4);
  gemm(x, y, via_flag, 1.0, /*transpose_x=*/true);
  DenseMatrix explicit_t(5, 4);
  gemm(transpose(x), y, explicit_t);
  EXPECT_LT(via_flag.max_abs_diff(explicit_t), 1e-12);

  // x . yT likewise.
  DenseMatrix xy_t(3, 3);
  gemm(x, DenseMatrix(transpose(x)), xy_t, 1.0, false, false);
  DenseMatrix xy_flag(3, 3);
  gemm(x, x, xy_flag, 1.0, false, /*transpose_y=*/true);
  EXPECT_LT(xy_t.max_abs_diff(xy_flag), 1e-12);
}

TEST(DenseOps, GemmValidatesShapes) {
  DenseMatrix x(2, 3), y(4, 2), c(2, 2);
  EXPECT_THROW(gemm(x, y, c), Error);
}

TEST(DenseOps, TransposeRoundTrip) {
  Rng rng(17);
  DenseMatrix x(5, 3);
  x.fill_random(rng);
  const auto back = transpose(transpose(x));
  EXPECT_EQ(back.max_abs_diff(x), 0.0);
}

TEST(DenseOps, BatchedRowDot) {
  DenseMatrix x(2, 2), y(2, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 3;
  x(1, 1) = 4;
  y(0, 0) = 5;
  y(0, 1) = 6;
  y(1, 0) = 7;
  y(1, 1) = 8;
  const auto dots = batched_row_dot(x, y);
  ASSERT_EQ(dots.size(), 2u);
  EXPECT_DOUBLE_EQ(dots[0], 17.0);
  EXPECT_DOUBLE_EQ(dots[1], 53.0);
}

TEST(DenseOps, RowScalingAndAxpy) {
  DenseMatrix x(2, 2);
  x.fill(1.0);
  const std::vector<Scalar> coeff{2.0, -1.0};
  scale_rows(x, coeff);
  EXPECT_DOUBLE_EQ(x(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(x(1, 1), -1.0);

  DenseMatrix y(2, 2);
  axpy_rows(coeff, x, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 1.0);

  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);
}

} // namespace
} // namespace dsk
