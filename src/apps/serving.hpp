#pragma once
/// \file serving.hpp
/// The host-side halves of one batched scoring pass of the serving layer
/// (apps/serve_als.hpp). Many narrow requests coalesce into one wide
/// SpMMB: serving them one at a time pays the per-call replication
/// traffic once per request, while a batched pass pays it once per batch
/// (and lands on the local kernels' specialized widths — width_dispatch
/// peaks at r in {32, 64, 128}). fill_similarity_block writes the pass's
/// input in row-major sweeps; top_k_unrated reads its output in
/// item-order sweeps. Both take a Slice, so each rank of the server's
/// resident world serves its own rows or requests, and the whole range
/// is the serial pass. Column j of a pass depends on request j alone:
/// the fill computes it with one dot kernel whatever the batch or the
/// slice, the SpMM kernels never mix columns, and request j's pick reads
/// column j alone — so a batched answer equals the unbatched one
/// bit-exactly, on any number of ranks. Batching changes traffic, not
/// results.

#include <span>
#include <vector>

#include "dense/dense_matrix.hpp"

namespace dsk {

struct Recommendation {
  Index item = 0;
  Scalar score = 0;
};

/// Snap a pending-request count to a kernel sweet-spot width: the
/// smallest of {32, 64, 128} that fits at least min(pending, max_width)
/// requests and does not exceed max_width, rounded up to `multiple`
/// (the plan's width divisibility; see dims_requirement). When
/// max_width is below every sweet spot the count itself is rounded up
/// to `multiple`.
Index snap_batch_width(Index pending, Index max_width = 128,
                       Index multiple = 1);

/// A contiguous share [begin, end) of one pass's rows or requests: the
/// part one rank of the resident world serves. The whole range is the
/// serial pass.
struct Slice {
  Index begin = 0;
  Index end = 0;
};

/// Write rows `rows` of `block` (within [0, block.rows())), whole, so the
/// block may arrive uninitialized: row i < a.rows() gets
/// <a_i, a_{users[j]}> in column j, each computed by dot_w at the width
/// dispatch_width picks for a.cols(), and exactly zero in the columns
/// from users.size() on; pad row i >= a.rows() is exactly zero. Slices
/// that do not overlap write disjoint rows.
void fill_similarity_block(const DenseMatrix& a, std::span<const Index> users,
                           DenseMatrix& block, Slice rows);

/// The k best unrated items of requests `requests` (within
/// [0, users.size())), best first, written to their own slots of
/// `answers` (one per request; the other slots are left alone). Request j
/// scores item i < items with scores(i, j), skips the items listed in
/// rated[users[j]] (ascending), and ranks by score descending, then item
/// ascending; fewer than k unrated items return them all. One sweep in
/// item order serves the slice.
void top_k_unrated(const DenseMatrix& scores, Index items,
                   std::span<const Index> users,
                   std::span<const std::vector<Index>> rated, int k,
                   Slice requests,
                   std::span<std::vector<Recommendation>> answers);

} // namespace dsk
