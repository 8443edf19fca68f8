#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "local/reference.hpp"
#include "sparse/generate.hpp"

namespace dsk {
namespace {

TEST(Problem, PadsToSmallestValidShape) {
  Rng rng(3);
  const auto s = erdos_renyi_fixed_row(50, 70, 3, rng);
  DenseMatrix a(50, 9), b(70, 9);
  a.fill_random(rng);
  b.fill_random(rng);

  const auto padded =
      pad_problem(AlgorithmKind::SparseShift15D, 8, 2, s, a, b);
  EXPECT_EQ(padded.s.rows(), 56);  // round_up(50, 8)
  EXPECT_EQ(padded.s.cols(), 72);  // round_up(70, 8)
  EXPECT_EQ(padded.a.cols(), 12);  // round_up(9, p/c = 4)
  EXPECT_EQ(padded.s.nnz(), s.nnz());
}

TEST(Problem, PaddedKernelMatchesUnpaddedReference) {
  Rng rng(5);
  const auto s = erdos_renyi_fixed_row(50, 70, 3, rng);
  DenseMatrix a(50, 9), b(70, 9);
  a.fill_random(rng);
  b.fill_random(rng);

  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const int p = 4, c = kind == AlgorithmKind::DenseShift15D ||
                               kind == AlgorithmKind::SparseShift15D
                           ? 2
                           : 1;
    const auto padded = pad_problem(kind, p, c, s, a, b);
    const auto result = make_plan(kind, p, c, padded.s, padded.a.cols())
                            .execute(Mode::SpMMA, padded.s, padded.a,
                                     padded.b);
    const auto sliced = unpad_dense(result.dense, 50, 9);
    const auto expected = reference_spmm_a(s, b);
    EXPECT_LT(sliced.max_abs_diff(expected), 1e-9) << to_string(kind);
  }
}

TEST(Problem, RequirementsMatchValidateDims) {
  for (const auto kind :
       {AlgorithmKind::DenseShift15D, AlgorithmKind::SparseShift15D,
        AlgorithmKind::DenseRepl25D, AlgorithmKind::SparseRepl25D}) {
    const int p = 16, c = 4;
    const auto req = dims_requirement(kind, p, c);
    // The advertised multiples must be accepted...
    validate_dims(kind, p, c, req.m_multiple, req.n_multiple,
                  req.r_multiple * 2);
    // ...and one-off sizes rejected (where the multiple is > 1).
    if (req.m_multiple > 1) {
      EXPECT_THROW(validate_dims(kind, p, c, req.m_multiple + 1,
                                 req.n_multiple, req.r_multiple),
                   Error)
          << to_string(kind);
    }
  }
}

} // namespace
} // namespace dsk
