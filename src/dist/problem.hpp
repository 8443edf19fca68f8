#pragma once
/// \file problem.hpp
/// Problem setup for the distributed algorithms: the per-family block
/// divisibility requirements, zero-padding of arbitrary problems to the
/// smallest valid shape, and slicing results back. The paper handles
/// ragged real-world matrices the same way ("we pad the dimensions of
/// our matrices so that they are evenly divisible by the grid"); padding
/// adds no nonzeros, so it changes no kernel output values inside the
/// original extent.

#include "dist/algorithm.hpp"

namespace dsk {

/// Block-grid divisibility of one algorithm family: m and n must be
/// multiples of m_multiple / n_multiple and r of r_multiple.
struct DimsRequirement {
  Index m_multiple = 1;
  Index n_multiple = 1;
  Index r_multiple = 1;
};

/// Requirements for (kind, p, c); throws on invalid grids.
DimsRequirement dims_requirement(AlgorithmKind kind, int p, int c);

/// Throws unless the problem is non-empty and (m, n, r) are multiples of
/// dims_requirement(kind, p, c) (call pad_problem first).
void validate_dims(AlgorithmKind kind, int p, int c, Index m, Index n,
                   Index r);

struct PaddedProblem {
  CooMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

/// Zero-pad (s, a, b) to the smallest shape dims_requirement accepts:
/// rows/cols of s (and rows of a / b) round up to the block multiples,
/// widths of a and b round up to the r multiple. The sparse pattern is
/// unchanged.
PaddedProblem pad_problem(AlgorithmKind kind, int p, int c,
                          const CooMatrix& s, const DenseMatrix& a,
                          const DenseMatrix& b);

/// The top-left rows x cols corner of a padded result.
DenseMatrix unpad_dense(const DenseMatrix& padded, Index rows, Index cols);

} // namespace dsk
