#pragma once
/// \file sddmm.hpp
/// Local SDDMM kernels: R = S * (A . B^T) restricted to the nonzero
/// pattern of S (paper Eq. 1). The masked-dot-product primitive is split
/// out because the distributed sparse-shifting algorithms accumulate
/// *partial* dot products into a circulating value buffer over several
/// propagation phases and multiply by S's original values only when the
/// block arrives back home (paper Section IV-A).

#include "dense/dense_matrix.hpp"
#include "sparse/csr.hpp"

namespace dsk {

class ThreadPool;

/// dots[k] += <A_i, B_j> for the k-th stored nonzero (i,j) of pattern.
/// A has pattern.rows() rows, B has pattern.cols() rows, equal widths.
/// Returns the FLOPs performed (2 * nnz * r).
/// When pool is non-null the row loop is split across the pool.
std::uint64_t masked_dot_products(const CsrMatrix& pattern,
                                  const DenseMatrix& a,
                                  const DenseMatrix& b,
                                  std::span<Scalar> dots,
                                  ThreadPool* pool = nullptr);

/// out[k] = s_values[k] * dots[k] (the SDDMM post-multiply).
void hadamard_values(std::span<const Scalar> s_values,
                     std::span<const Scalar> dots, std::span<Scalar> out);

/// Full local SDDMM: returns R with the pattern of s and values
/// s_ij * <A_i, B_j>. Convenience wrapper over the two primitives.
CsrMatrix sddmm(const CsrMatrix& s, const DenseMatrix& a,
                const DenseMatrix& b, ThreadPool* pool = nullptr);

} // namespace dsk
