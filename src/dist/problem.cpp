#include "dist/problem.hpp"

#include "common/error.hpp"
#include "dist/grid.hpp"

namespace dsk {

namespace {

Index round_up(Index value, Index multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// Copy of m grown to rows x cols (zeros elsewhere).
DenseMatrix grow_dense(const DenseMatrix& m, Index rows, Index cols) {
  DenseMatrix out(rows, cols);
  out.place(m, 0, 0);
  return out;
}

} // namespace

DimsRequirement dims_requirement(AlgorithmKind kind, int p, int c) {
  check(valid_config(kind, p, c), "dims_requirement: invalid grid ",
        to_string(kind), " p=", p, " c=", c);
  switch (kind) {
    case AlgorithmKind::DenseShift15D:
      // A in m/p block rows, B in n/p shifting block rows, full-width
      // rows everywhere.
      return {p, p, 1};
    case AlgorithmKind::SparseShift15D: {
      // Dense rows split into p/c width slices; S in (m / layer_size) x
      // (n / c) pieces, with the canonical dense layouts needing m / p
      // granularity.
      const Grid15D grid(p, c);
      return {p, p, static_cast<Index>(grid.layer_size())};
    }
    case AlgorithmKind::DenseRepl25D: {
      // m/q row blocks whose fiber chunks split c ways; n/(qc) shifting
      // column blocks; r/q width slices.
      const Grid25D grid(p, c);
      const auto q = static_cast<Index>(grid.q());
      return {q * c, q * c, q};
    }
    case AlgorithmKind::SparseRepl25D: {
      // q x q stationary cells; dense rows split into q*c width slices.
      const Grid25D grid(p, c);
      const auto q = static_cast<Index>(grid.q());
      return {q, q, q * c};
    }
    case AlgorithmKind::Baseline1D:
      return {p, p, 1};
  }
  fail("dims_requirement: unknown algorithm kind");
}

void validate_dims(AlgorithmKind kind, int p, int c, Index m, Index n,
                   Index r) {
  check(m >= 1 && n >= 1 && r >= 1, "validate_dims: empty problem ", m,
        " x ", n, " x ", r);
  const auto req = dims_requirement(kind, p, c);
  check(m % req.m_multiple == 0, to_string(kind), ": m = ", m,
        " is not a multiple of ", req.m_multiple, " (p=", p, " c=", c,
        "); call pad_problem first");
  check(n % req.n_multiple == 0, to_string(kind), ": n = ", n,
        " is not a multiple of ", req.n_multiple, " (p=", p, " c=", c,
        "); call pad_problem first");
  check(r % req.r_multiple == 0, to_string(kind), ": r = ", r,
        " is not a multiple of ", req.r_multiple, " (p=", p, " c=", c,
        "); call pad_problem first");
}

PaddedProblem pad_problem(AlgorithmKind kind, int p, int c,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b) {
  check(a.rows() == s.rows(), "pad_problem: A has ", a.rows(),
        " rows, S has ", s.rows());
  check(b.rows() == s.cols(), "pad_problem: B has ", b.rows(),
        " rows, S has ", s.cols(), " cols");
  check(a.cols() == b.cols(), "pad_problem: A width ", a.cols(),
        " != B width ", b.cols());
  const auto req = dims_requirement(kind, p, c);
  const Index m = round_up(s.rows(), req.m_multiple);
  const Index n = round_up(s.cols(), req.n_multiple);
  const Index r = round_up(a.cols(), req.r_multiple);

  PaddedProblem out{CooMatrix(m, n), grow_dense(a, m, r),
                    grow_dense(b, n, r)};
  out.s.reserve(s.nnz());
  for (Index k = 0; k < s.nnz(); ++k) {
    const auto e = s.entry(k);
    out.s.push_back(e.row, e.col, e.value);
  }
  return out;
}

DenseMatrix unpad_dense(const DenseMatrix& padded, Index rows, Index cols) {
  check(rows <= padded.rows() && cols <= padded.cols(),
        "unpad_dense: requested ", rows, " x ", cols, " from ",
        padded.rows(), " x ", padded.cols());
  return padded.row_block(0, rows).col_block(0, cols);
}

} // namespace dsk
