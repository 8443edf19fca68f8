#pragma once
/// \file fused.hpp
/// Fused local FusedMM kernels (paper Section IV-B, "local kernel
/// fusion", and Rahman et al. [11]): the SDDMM dot product and the SpMM
/// aggregation for a nonzero happen back-to-back while both dense rows
/// are hot in cache, and the intermediate SDDMM result is never
/// materialized:
///   FusedMMA: A_out_i += sum_j S_ij <A_i, B_j> B_j
/// The distributed 1.5D dense-shifting algorithm with local kernel fusion
/// is the only algorithm that may call this kernel, because it is the only
/// one co-locating entire rows of A and B (full r extent) on a processor.

#include "dense/dense_matrix.hpp"
#include "sparse/csr.hpp"

namespace dsk {

/// a_out_i += sum over stored (i,j) of s_ij * <a_in_i, b_j> * b_j.
/// a_in and a_out have s.rows() rows; b has s.cols() rows.
/// Returns FLOPs (4 * nnz * r: dot + scaled accumulate).
std::uint64_t fusedmm_a(const CsrMatrix& s, const DenseMatrix& a_in,
                        const DenseMatrix& b, DenseMatrix& a_out);

} // namespace dsk
