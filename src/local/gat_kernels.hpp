#pragma once
/// \file gat_kernels.hpp
/// Graph-attention kernels (paper Section VI-E). A single attention head
/// scores edge (i,j) as e_ij = LeakyReLU(a^T [Wh_i || Wh_j]). Because the
/// trainable vector a acts separately on the two halves of the
/// concatenation, the score decomposes into per-node scalars
///   u_i = <a_left,  (HW)_i>,   v_j = <a_right, (HW)_j>,
///   e_ij = LeakyReLU(u_i + v_j),
/// so computing all edge scores "involves a slight modification of Eq. 1
/// and has an identical communication pattern to SDDMM".

#include "dense/dense_matrix.hpp"
#include "sparse/csr.hpp"

namespace dsk {

/// scores[k] += u_i + v_j for the k-th stored nonzero (i,j) of pattern
/// (the pre-activation attention logits; distributed callers accumulate
/// partial u/v sums exactly like SDDMM partial dots).
/// u has pattern.rows() entries, v has pattern.cols() entries.
std::uint64_t gat_edge_logits(const CsrMatrix& pattern,
                              std::span<const Scalar> u,
                              std::span<const Scalar> v,
                              std::span<Scalar> scores);

/// In-place LeakyReLU with the given negative slope (GAT uses 0.2).
void leaky_relu(std::span<Scalar> values, Scalar negative_slope);

/// Row-wise softmax over CSR values: values in each row are replaced by
/// exp(x - rowmax) / rowsum. Numerically stable. Local-only; the
/// distributed GAT assembles full rows before calling this.
void row_softmax(CsrMatrix& matrix);

/// Per-row max of CSR values into out (rows with no nonzeros get
/// -infinity). Used by the distributed softmax to combine row partials.
void row_max(const CsrMatrix& matrix, std::span<Scalar> out);

/// Per-row sum of exp(value - shift[row]) into out.
void row_exp_sum(const CsrMatrix& matrix, std::span<const Scalar> shift,
                 std::span<Scalar> out);

/// values[k] = exp(values[k] - shift[row]) / denom[row].
void apply_softmax(CsrMatrix& matrix, std::span<const Scalar> shift,
                   std::span<const Scalar> denom);

} // namespace dsk
