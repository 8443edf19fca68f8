#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dense/dense_ops.hpp"
#include "local/fused.hpp"
#include "local/gat_kernels.hpp"
#include "local/reference.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "local/width_dispatch.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

struct Fixture {
  CooMatrix coo;
  CsrMatrix csr;
  DenseMatrix a;
  DenseMatrix b;
};

Fixture make_fixture(Index m = 32, Index n = 48, Index r = 8,
                     std::uint64_t seed = 7) {
  Rng rng(seed);
  Fixture f{erdos_renyi_fixed_row(m, n, 5, rng), {}, DenseMatrix(m, r),
            DenseMatrix(n, r)};
  f.csr = coo_to_csr(f.coo);
  f.a.fill_random(rng);
  f.b.fill_random(rng);
  return f;
}

constexpr Scalar kTol = 1e-12;

TEST(LocalSddmm, MatchesDenseReference) {
  auto f = make_fixture();
  const auto got = sddmm(f.csr, f.a, f.b);
  // Reference via full dense product: R = S .* (A B^T).
  DenseMatrix ab(f.a.rows(), f.b.rows());
  gemm(f.a, f.b, ab, 1.0, false, /*transpose_y=*/true);
  for (Index i = 0; i < f.csr.rows(); ++i) {
    const auto cols = f.csr.row_cols(i);
    const auto s_vals = f.csr.row_values(i);
    const auto r_vals = got.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      EXPECT_NEAR(r_vals[k], s_vals[k] * ab(i, cols[k]), kTol);
    }
  }
}

TEST(LocalSddmm, SplitPrimitivesComposeToSddmm) {
  auto f = make_fixture();
  std::vector<Scalar> dots(static_cast<std::size_t>(f.csr.nnz()), 0.0);
  masked_dot_products(f.csr, f.a, f.b, dots);
  std::vector<Scalar> out(dots.size());
  hadamard_values(f.csr.values(), dots, out);
  const auto direct = sddmm(f.csr, f.a, f.b);
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_NEAR(out[k], direct.values()[k], kTol);
  }
}

TEST(LocalSddmm, AccumulatesAcrossCalls) {
  // Two calls on r-slices must equal one call on the full width — the
  // property the sparse-shifting algorithms rely on.
  auto f = make_fixture(16, 24, 8);
  std::vector<Scalar> dots(static_cast<std::size_t>(f.csr.nnz()), 0.0);
  const auto a_lo = f.a.col_block(0, 4);
  const auto a_hi = f.a.col_block(4, 8);
  const auto b_lo = f.b.col_block(0, 4);
  const auto b_hi = f.b.col_block(4, 8);
  masked_dot_products(f.csr, a_lo, b_lo, dots);
  masked_dot_products(f.csr, a_hi, b_hi, dots);
  std::vector<Scalar> full(dots.size(), 0.0);
  masked_dot_products(f.csr, f.a, f.b, full);
  for (std::size_t k = 0; k < dots.size(); ++k) {
    EXPECT_NEAR(dots[k], full[k], kTol);
  }
}

TEST(LocalSpmm, BothOrientationsMatchReference) {
  auto f = make_fixture();
  DenseMatrix a_out(f.csr.rows(), f.a.cols());
  spmm_a(f.csr, f.b, a_out);
  EXPECT_LT(a_out.max_abs_diff(reference_spmm_a(f.coo, f.b)), kTol);

  DenseMatrix b_out(f.csr.cols(), f.a.cols());
  spmm_b(f.csr, f.a, b_out);
  EXPECT_LT(b_out.max_abs_diff(reference_spmm_b(f.coo, f.a)), kTol);
}

TEST(LocalSpmm, TransposeDuality) {
  // SpMMA(S, B) == SpMMB(S^T, B) — the identity behind the paper's
  // orientation interchange.
  auto f = make_fixture();
  DenseMatrix via_a(f.csr.rows(), f.a.cols());
  spmm_a(f.csr, f.b, via_a);
  DenseMatrix via_b(f.csr.rows(), f.a.cols());
  spmm_b(transpose(f.csr), f.b, via_b);
  EXPECT_LT(via_a.max_abs_diff(via_b), kTol);
}

TEST(LocalSpmm, AccumulatesIntoOutput) {
  auto f = make_fixture();
  DenseMatrix acc(f.csr.rows(), f.a.cols());
  acc.fill(1.0);
  spmm_a(f.csr, f.b, acc);
  DenseMatrix fresh(f.csr.rows(), f.a.cols());
  spmm_a(f.csr, f.b, fresh);
  for (Index i = 0; i < acc.rows(); ++i) {
    for (Index j = 0; j < acc.cols(); ++j) {
      EXPECT_NEAR(acc(i, j), fresh(i, j) + 1.0, kTol);
    }
  }
}

TEST(LocalFused, MatchesTwoStepComposition) {
  auto f = make_fixture();
  DenseMatrix fused_out(f.csr.rows(), f.a.cols());
  fusedmm_a(f.csr, f.a, f.b, fused_out);
  EXPECT_LT(fused_out.max_abs_diff(reference_fusedmm_a(f.coo, f.a, f.b)),
            1e-10);
}

TEST(LocalFused, FlopCountIsDouble) {
  auto f = make_fixture();
  DenseMatrix out(f.csr.rows(), f.a.cols());
  const auto fused_flops = fusedmm_a(f.csr, f.a, f.b, out);
  DenseMatrix out2(f.csr.rows(), f.a.cols());
  const auto spmm_flops = spmm_a(f.csr, f.b, out2);
  EXPECT_EQ(fused_flops, 2 * spmm_flops);
}

TEST(WidthDispatch, PicksSpecializedInstances) {
  EXPECT_EQ(dispatch_width(16, [](auto w) { return decltype(w)::value; }),
            16);
  EXPECT_EQ(dispatch_width(32, [](auto w) { return decltype(w)::value; }),
            32);
  EXPECT_EQ(dispatch_width(64, [](auto w) { return decltype(w)::value; }),
            64);
  EXPECT_EQ(dispatch_width(128, [](auto w) { return decltype(w)::value; }),
            128);
  EXPECT_EQ(dispatch_width(33, [](auto w) { return decltype(w)::value; }), 0);
  EXPECT_EQ(dispatch_width(1, [](auto w) { return decltype(w)::value; }), 0);
}

/// The 8-lane order written as a plain scalar loop on a lane array: lane
/// l sums a[f] * b[f] over f = l mod 8 in order of f, then lanes 0..7
/// are added in order. dot_w must reproduce it bit for bit.
template <int W>
Scalar eight_lane_dot(const Scalar* a, const Scalar* b) {
  Scalar lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int f = 0; f < W; f += 8) {
    for (int l = 0; l < 8; ++l) {
      lanes[l] += a[f + l] * b[f + l];
    }
  }
  Scalar dot = 0;
  for (int l = 0; l < 8; ++l) {
    dot += lanes[l];
  }
  return dot;
}

template <int W>
void expect_dot_keeps_lane_order(std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(64, W), b(64, W);
  a.fill_random(rng);
  b.fill_random(rng);
  // A row whose products cancel in pairs and a row of mixed magnitudes.
  for (Index f = 0; f < W; ++f) {
    a(0, f) = a(0, f - f % 2);
    b(0, f) = f % 2 == 0 ? b(0, f) : -b(0, f - 1);
    a(1, f) = std::ldexp(a(1, f), static_cast<int>(f % 5) * 20 - 40);
  }
  for (Index i = 0; i < a.rows(); ++i) {
    const Scalar got = dot_w<W>(a.row(i).data(), b.row(i).data(), W);
    const Scalar want = eight_lane_dot<W>(a.row(i).data(), b.row(i).data());
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << "W " << W;
    EXPECT_EQ(got, want) << "W " << W << " row " << i;
  }
}

TEST(WidthDispatch, DotKeepsTheEightLaneOrderBitForBit) {
  expect_dot_keeps_lane_order<16>(11);
  expect_dot_keeps_lane_order<32>(12);
  expect_dot_keeps_lane_order<64>(13);
  expect_dot_keeps_lane_order<128>(14);
}

// ------------------------------------------------------------------
// BalancedKernels: every CSR kernel vs the serial COO reference on
// badly balanced and degenerate row shapes (power-law rows, all
// nonzeros in one row, empty first and last rows, the empty matrix),
// across specialized and generic widths.

/// The width-specialized dot product reorders the summation.
constexpr Scalar kReorderTol = 1e-10;

Fixture make_power_law(Index n, Index r, std::uint64_t seed) {
  Rng rng(seed);
  Fixture f{rmat(n, n, 8 * n, rng), {}, DenseMatrix(n, r),
            DenseMatrix(n, r)};
  f.csr = coo_to_csr(f.coo);
  f.a.fill_random(rng);
  f.b.fill_random(rng);
  return f;
}

/// A matrix whose entire nnz sits in one row.
Fixture make_one_hot_row(Index n, Index r, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  coo.reserve(n);
  for (Index j = 0; j < n; ++j) {
    coo.push_back(n / 2, j, rng.next_in(-1, 1));
  }
  Fixture f{std::move(coo), {}, DenseMatrix(n, r), DenseMatrix(n, r)};
  f.csr = coo_to_csr(f.coo);
  f.a.fill_random(rng);
  f.b.fill_random(rng);
  return f;
}

/// First and last rows (and a band in the middle) empty.
Fixture make_holey(Index n, Index r, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  for (Index i = n / 4; i < n / 2; ++i) {
    for (Index k = 0; k < 6; ++k) {
      coo.push_back(i, rng.next_index(0, n), rng.next_in(-1, 1));
    }
  }
  coo.sort_and_combine();
  Fixture f{std::move(coo), {}, DenseMatrix(n, r), DenseMatrix(n, r)};
  f.csr = coo_to_csr(f.coo);
  f.a.fill_random(rng);
  f.b.fill_random(rng);
  return f;
}

void expect_kernels_match_reference(const Fixture& f) {
  // SpMM-A
  DenseMatrix a_out(f.csr.rows(), f.b.cols());
  spmm_a(f.csr, f.b, a_out);
  EXPECT_LT(a_out.max_abs_diff(reference_spmm_a(f.coo, f.b)), kReorderTol);

  // SpMM-B
  DenseMatrix b_out(f.csr.cols(), f.a.cols());
  spmm_b(f.csr, f.a, b_out);
  EXPECT_LT(b_out.max_abs_diff(reference_spmm_b(f.coo, f.a)), kReorderTol);

  // SpMM-B accumulates into prior contents.
  DenseMatrix b_acc(f.csr.cols(), f.a.cols());
  b_acc.fill(1.0);
  spmm_b(f.csr, f.a, b_acc);
  for (Index i = 0; i < b_acc.rows(); ++i) {
    for (Index j = 0; j < b_acc.cols(); ++j) {
      EXPECT_NEAR(b_acc(i, j), b_out(i, j) + 1.0, kReorderTol);
    }
  }

  // SDDMM
  const auto ref = reference_sddmm(f.coo, f.a, f.b);
  std::vector<Scalar> dots(static_cast<std::size_t>(f.csr.nnz()), 0.0);
  masked_dot_products(f.csr, f.a, f.b, dots);
  const auto s_values = f.csr.values();
  for (Index k = 0; k < f.csr.nnz(); ++k) {
    EXPECT_NEAR(s_values[static_cast<std::size_t>(k)] *
                    dots[static_cast<std::size_t>(k)],
                ref.entry(k).value, kReorderTol);
  }

  // FusedMM-A
  DenseMatrix fused_out(f.csr.rows(), f.b.cols());
  fusedmm_a(f.csr, f.a, f.b, fused_out);
  EXPECT_LT(fused_out.max_abs_diff(reference_fusedmm_a(f.coo, f.a, f.b)),
            kReorderTol);
}

TEST(BalancedKernels, MatchReferenceAcrossWidths) {
  for (const Index r : {1, 16, 32, 33, 128}) {
    expect_kernels_match_reference(
        make_power_law(256, r, 1000 + static_cast<std::uint64_t>(r)));
  }
}

TEST(BalancedKernels, AllNnzInOneRow) {
  for (const Index r : {16, 32, 33}) {
    expect_kernels_match_reference(make_one_hot_row(128, r, 7));
  }
}

TEST(BalancedKernels, EmptyRowsAtBothEnds) {
  const auto f = make_holey(128, 32, 21);
  ASSERT_EQ(f.csr.row_nnz(0), 0);
  ASSERT_EQ(f.csr.row_nnz(f.csr.rows() - 1), 0);
  expect_kernels_match_reference(f);
}

TEST(BalancedKernels, EmptyMatrix) {
  CooMatrix coo(64, 64);
  Fixture f{std::move(coo), {}, DenseMatrix(64, 32), DenseMatrix(64, 32)};
  f.csr = coo_to_csr(f.coo);
  Rng rng(3);
  f.a.fill_random(rng);
  f.b.fill_random(rng);
  expect_kernels_match_reference(f);
}

TEST(GatKernels, LogitsDecomposeAttention) {
  auto f = make_fixture(16, 16, 4);
  std::vector<Scalar> u(16), v(16);
  Rng rng(3);
  for (auto& x : u) x = rng.next_in(-1, 1);
  for (auto& x : v) x = rng.next_in(-1, 1);
  std::vector<Scalar> scores(static_cast<std::size_t>(f.csr.nnz()), 0.0);
  gat_edge_logits(f.csr, u, v, scores);
  std::size_t k = 0;
  for (Index i = 0; i < f.csr.rows(); ++i) {
    for (const Index j : f.csr.row_cols(i)) {
      EXPECT_NEAR(scores[k++], u[static_cast<std::size_t>(i)] +
                                   v[static_cast<std::size_t>(j)],
                  kTol);
    }
  }
}

TEST(GatKernels, LeakyReluNegativeSlope) {
  std::vector<Scalar> x{-2.0, 0.0, 3.0};
  leaky_relu(x, 0.2);
  EXPECT_DOUBLE_EQ(x[0], -0.4);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(GatKernels, RowSoftmaxNormalizes) {
  auto f = make_fixture(16, 16, 4);
  CsrMatrix s = f.csr;
  row_softmax(s);
  for (Index i = 0; i < s.rows(); ++i) {
    const auto vals = s.row_values(i);
    if (vals.empty()) continue;
    Scalar sum = 0;
    for (const auto x : vals) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GatKernels, DistributedSoftmaxPiecesCompose) {
  // row_max / row_exp_sum / apply_softmax with full rows must equal
  // row_softmax (the distributed GAT combines these across ranks).
  auto f = make_fixture(16, 16, 4, 9);
  CsrMatrix direct = f.csr;
  row_softmax(direct);

  CsrMatrix pieces = f.csr;
  std::vector<Scalar> shift(16);
  row_max(pieces, shift);
  std::vector<Scalar> denom(16, 0.0);
  row_exp_sum(pieces, shift, denom);
  apply_softmax(pieces, shift, denom);
  EXPECT_EQ(max_abs_value_diff(direct, pieces), 0.0);
}

} // namespace
} // namespace dsk
