#pragma once
/// \file spmm.hpp
/// Local SpMM kernels, in the paper's two orientations (Section II):
///   SpMMA: A += S . B      (output has A's shape; S is rows x cols,
///                           B has cols rows)
///   SpMMB: B += S^T . A    (output has B's shape)
///
/// Both kernels are serial row loops, width-specialized for the paper's
/// benchmark widths r in {32, 64, 128} (see width_dispatch.hpp).

#include "dense/dense_matrix.hpp"
#include "sparse/csr.hpp"

namespace dsk {

/// a_out += S . b. a_out has s.rows() rows; b has s.cols() rows.
/// Returns FLOPs (2 * nnz * r).
std::uint64_t spmm_a(const CsrMatrix& s, const DenseMatrix& b,
                     DenseMatrix& a_out);

/// b_out += S^T . a. b_out has s.cols() rows; a has s.rows() rows.
/// Returns FLOPs (2 * nnz * r).
std::uint64_t spmm_b(const CsrMatrix& s, const DenseMatrix& a,
                     DenseMatrix& b_out);

} // namespace dsk
