#pragma once
/// \file shards.hpp
/// Block shards and wire formats for the distributed algorithms.
///
/// Three concerns live here:
///   * Wire (de)serialization of the payloads the propagation phases
///     move: COO triplet blocks (3 words per nonzero plus a one-word
///     count header — exactly the paper's sparse-shift cost), dense
///     blocks (values only, shapes travel out of band), and bare value
///     vectors (the 2.5D sparse-replicating fiber collectives).
///   * Shard extraction: single-pass bucketing of a sorted CooMatrix
///     into the per-rank / per-piece blocks of a distribution, keeping
///     each nonzero's position in the global entry order so SDDMM
///     results can be scattered back without communication.
///   * Load balance (paper Section VI): the block nnz imbalance of a
///     distribution and the order-keeping row/column assignments
///     (BlockMaps) that make_plan draws for a skewed pattern. Shards,
///     dense slices and output placement all read through the maps.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dense/dense_matrix.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/wire.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace dsk {

/// A COO block as three parallel arrays (the sparse-shift wire layout).
struct Triplets {
  std::vector<Index> rows;
  std::vector<Index> cols;
  std::vector<Scalar> values;

  std::size_t size() const { return values.size(); }
};

/// Wire cost of a triplet block: [count, rows..., cols..., values...]
/// = 3*nnz + 1 words under the default codec — exactly the paper's
/// sparse-shift charge (non-default codecs: runtime/wire.hpp's
/// encoded_triplets_words). The pack/unpack pair below and every
/// modeled sparse-shift cost must stay in lockstep with this function
/// (dsk_lint check P1).
inline std::uint64_t triplets_words(std::size_t nnz) {
  return 3 * static_cast<std::uint64_t>(nnz) + 1;
}

/// Serialize: encoded_triplets_words(t.size(), codec) words. A thin
/// delegate into the wire-codec layer (runtime/wire.hpp), kept so the
/// drivers speak `Triplets` — the byte layout lives in exactly one
/// place.
MessageWords pack_triplets(const Triplets& t, const WireCodec& codec = {});

/// Deserialize; throws on truncated or trailing-garbage messages.
Triplets unpack_triplets(const MessageWords& words,
                         const WireCodec& codec = {});

/// Wire cost of a dense block: values only, shapes travel out of band.
inline std::uint64_t dense_words(Index rows, Index cols) {
  return static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}

/// Serialize a dense matrix's values (row-major, no header) — the raw
/// full-precision image of a block, the words a Full-precision dense hop
/// is charged. Wire-precision encoding happens at the hop boundary
/// (shift_loop / collectives), so this pair has no codec parameter.
/// Delegates into runtime/wire.hpp.
MessageWords pack_dense(const DenseMatrix& m);

/// Deserialize into a rows x cols matrix; throws on size mismatch.
DenseMatrix unpack_dense(const MessageWords& words, Index rows, Index cols);

/// Wire cost of a bare value vector (no header; length known out of
/// band); non-default codecs: wire.hpp's encoded_values_words.
inline std::uint64_t values_words(std::size_t count) {
  return static_cast<std::uint64_t>(count);
}

/// Serialize a bare value vector (delegates into runtime/wire.hpp).
MessageWords pack_values(std::span<const Scalar> values,
                         const WireCodec& codec = {});

/// Deserialize `count` values under any codec (low-precision payloads
/// pad their last word, so the count travels out of band).
std::vector<Scalar> unpack_values(const MessageWords& words,
                                  std::int64_t count,
                                  const WireCodec& codec);

/// One piece of a sparse-matrix distribution: the re-based block in both
/// formats plus, per stored nonzero, its index in the global sorted
/// entry order (CSR and COO orders coincide because buckets preserve the
/// global (row, col) sort).
struct SparseShard {
  Triplets coo;                    ///< re-based triplets, global order
  CsrMatrix csr;                   ///< same entries as CSR
  std::vector<Index> entries;      ///< global entry index per nonzero
  /// Sorted distinct block-local rows with at least one stored nonzero —
  /// the only rows of a replicated A-side block this shard's kernels
  /// ever read or write. Computed once per shard by shard_coo and fed to
  /// the row-sparse replication collectives (Group::allgatherv_rows /
  /// reduce_scatter_rows).
  std::vector<Index> row_support;
  /// Sorted distinct block-local columns with at least one stored
  /// nonzero — the only rows of a circulating B-side dense block this
  /// shard's kernels ever read (SpMM-A / SDDMM / fused) or write
  /// (SpMM-B accumulators). Computed once per shard by shard_coo and fed
  /// to the column-support propagation compression of the shift loop
  /// (ShiftCompression / Group::sendrecv_cols).
  std::vector<Index> col_support;
  std::uint64_t nnz() const { return coo.values.size(); }
};

/// A family's sparse blocks: S's rows split into `row_blocks` equal
/// intervals and its columns into `col_blocks`, and every shard_coo
/// bucket of the family lies inside one (row block, column block) cell.
struct BlockGrid {
  int row_blocks = 1;
  int col_blocks = 1;
};

/// An order-keeping assignment of one axis's indices to the equal blocks
/// of a BlockGrid: `to[i]` is caller index i's planned index and `from`
/// the inverse, and inside every block the planned indices keep the
/// caller's order (the map is monotone there). Empty is the identity.
struct AxisMap {
  std::vector<Index> to;
  std::vector<Index> from;

  bool identity() const { return to.empty(); }
  Index operator()(Index i) const {
    return identity() ? i : to[static_cast<std::size_t>(i)];
  }
};

/// The planned order of S's rows and columns. A shard holds S's entries
/// at their planned coordinates, a dense slice reads A's (B's) rows
/// through rows.from (cols.from), and an output block lands through the
/// same map, so callers see their own order everywhere.
struct BlockMaps {
  AxisMap rows;
  AxisMap cols;

  bool identity() const { return rows.identity() && cols.identity(); }
};

/// Max over the grid's cells of their nnz, times the number of cells,
/// over nnz (1.0 for an empty matrix), with S's entries placed through
/// `maps`. Dims must divide the grid.
double block_imbalance(const CooMatrix& s, BlockGrid grid,
                       const BlockMaps& maps = {});

/// A seeded assignment of S's rows to grid.row_blocks equal blocks and
/// its columns to grid.col_blocks, keeping the caller's order inside
/// each block. Each index's block is uniform and the counts are equal;
/// the draw is stratified by nonzero count (every run of `blocks`
/// indices of similar weight takes a random permutation of the blocks),
/// so heavy rows and columns spread evenly. An axis with one block keeps
/// the identity. Dims must divide the grid.
BlockMaps draw_block_maps(const CooMatrix& s, BlockGrid grid,
                          std::uint64_t seed);

/// Bucket a sorted CooMatrix into `buckets` shards in one pass.
/// bucket_of maps a planned (row, col) to its bucket; rebase maps it to
/// the block-local (row, col). shapes[b] gives shard b's block shape.
/// Each entry is placed at its planned coordinates (maps.rows(i),
/// maps.cols(j)); since every bucket lies in one cell of the maps' grid,
/// where they are monotone, the buckets keep the global entry order.
std::vector<SparseShard> shard_coo(
    const CooMatrix& s, int buckets,
    const std::function<int(Index, Index)>& bucket_of,
    const std::function<std::pair<Index, Index>(Index, Index)>& rebase,
    const std::function<std::pair<Index, Index>(int)>& shape,
    const BlockMaps& maps = {});

/// Sorted union of the given shards' row supports (each support must lie
/// in [0, rows)). The drivers use this to build a rank's support over a
/// replicated working block that feeds several pieces.
std::vector<Index> union_row_support(
    const std::vector<const SparseShard*>& shards, Index rows);

/// The rows x cols sub-block of src starting at (row0, col0), copied.
/// With a row map `from` (an AxisMap's planned -> caller order), block
/// row i is src row from[row0 + i].
DenseMatrix dense_block(const DenseMatrix& src, Index row0, Index rows,
                        Index col0, Index cols,
                        std::span<const Index> from = {});

/// Copy src into dst starting at (row0, col0); with a row map `from`,
/// src row i lands on dst row from[row0 + i]. Writers of disjoint
/// regions may call this concurrently (the distributed drivers assemble
/// global outputs this way).
void place_block(DenseMatrix& dst, const DenseMatrix& src, Index row0,
                 Index col0, std::span<const Index> from = {});

} // namespace dsk
