#pragma once
/// \file serving.hpp
/// The host-side halves of one batched scoring pass of the serving layer
/// (apps/serve_als.hpp). Many narrow requests coalesce into one wide
/// SpMMB: serving them one at a time pays the per-call replication
/// traffic once per request, while a batched pass pays it once per batch
/// (and lands on the local kernels' specialized widths — width_dispatch
/// peaks at r in {32, 64, 128}). fill_similarity_block writes the pass's
/// input in one row-major sweep; top_k_unrated reads its output in one
/// item-order sweep. Column j of a pass depends on request j alone: the
/// fill computes it with one dot kernel whatever the batch, and the SpMM
/// kernels never mix columns, so a batched answer equals the unbatched
/// one bit-exactly — batching changes traffic, not results.

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

/// Write every entry of `block`, so it may arrive uninitialized: row
/// perm[i], column j gets <a_i, a_{users[j]}>, each computed by dot_w at
/// the width dispatch_width picks for a.cols(); rows from a.rows() on
/// and columns from users.size() on are exactly zero. `perm` must map
/// the rows of `a` one to one onto [0, a.rows()).
void fill_similarity_block(const DenseMatrix& a, std::span<const Index> perm,
                           std::span<const Index> users, DenseMatrix& block);

/// The k best unrated items of each request, best first. Request j scores
/// item i < items with scores(i, j), skips the items listed in
/// rated[users[j]] (ascending), and ranks by score descending, then item
/// ascending; fewer than k unrated items return them all. One sweep in
/// item order serves the whole batch.
std::vector<std::vector<Recommendation>> top_k_unrated(
    const DenseMatrix& scores, Index items, std::span<const Index> users,
    std::span<const std::vector<Index>> rated, int k);

} // namespace dsk
