#pragma once
/// \file partition.hpp
/// Block partitioning helpers shared by the Table II data distributions:
/// uniform 1D interval partitions and a one-pass COO grid splitter that
/// buckets every nonzero into its (row block, col block) cell.

#include <vector>

#include "common/error.hpp"
#include "sparse/coo.hpp"

namespace dsk {

/// Partition of [0, total) into contiguous blocks.
class BlockPartition {
 public:
  /// Uniform partition into num_blocks equal blocks; total must be
  /// divisible by num_blocks (the distributed algorithms require exact
  /// block grids; use dist/problem.hpp to pad arbitrary sizes).
  static BlockPartition uniform(Index total, Index num_blocks);

  Index num_blocks() const {
    return static_cast<Index>(offsets_.size()) - 1;
  }
  Index total() const { return offsets_.back(); }
  Index begin(Index block) const {
    return offsets_[static_cast<std::size_t>(block)];
  }
  Index end(Index block) const {
    return offsets_[static_cast<std::size_t>(block) + 1];
  }
  Index size(Index block) const { return end(block) - begin(block); }

  /// Block containing index (uniform partitions only need a division).
  Index block_of(Index index) const;

 private:
  explicit BlockPartition(std::vector<Index> offsets)
      : offsets_(std::move(offsets)) {}
  std::vector<Index> offsets_;
};

/// Split [0, count) into num_parts contiguous near-equal ranges (sizes
/// differ by at most one; count need not divide evenly). Returns
/// num_parts + 1 monotone boundaries with front() == 0 and
/// back() == count; part p is [bounds[p], bounds[p+1]).
std::vector<Index> partition_uniform(Index count, int num_parts);

/// Bucket a COO matrix into a grid of (row blocks x col blocks) rebased
/// COO blocks in a single pass over the nonzeros.
/// Result is indexed [row_block][col_block].
std::vector<std::vector<CooMatrix>> split_coo_grid(
    const CooMatrix& coo, const BlockPartition& row_part,
    const BlockPartition& col_part);

} // namespace dsk
