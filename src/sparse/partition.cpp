#include "sparse/partition.hpp"

namespace dsk {

BlockPartition BlockPartition::uniform(Index total, Index num_blocks) {
  check(num_blocks > 0, "BlockPartition: need at least one block");
  check(total % num_blocks == 0, "BlockPartition: total ", total,
        " not divisible into ", num_blocks,
        " equal blocks; pad the problem first (see dist/problem.hpp)");
  std::vector<Index> offsets(static_cast<std::size_t>(num_blocks) + 1);
  const Index block = total / num_blocks;
  for (Index b = 0; b <= num_blocks; ++b) {
    offsets[static_cast<std::size_t>(b)] = b * block;
  }
  return BlockPartition(std::move(offsets));
}

Index BlockPartition::block_of(Index index) const {
  check(0 <= index && index < total(), "BlockPartition::block_of: index ",
        index, " outside [0, ", total(), ")");
  const Index block = total() / num_blocks();
  return index / block;
}

std::vector<Index> partition_uniform(Index count, int num_parts) {
  check(num_parts >= 1, "partition_uniform: need at least one part, got ",
        num_parts);
  check(count >= 0, "partition_uniform: negative count ", count);
  std::vector<Index> bounds(static_cast<std::size_t>(num_parts) + 1);
  for (int p = 0; p <= num_parts; ++p) {
    bounds[static_cast<std::size_t>(p)] =
        (count * static_cast<Index>(p)) / static_cast<Index>(num_parts);
  }
  return bounds;
}

std::vector<std::vector<CooMatrix>> split_coo_grid(
    const CooMatrix& coo, const BlockPartition& row_part,
    const BlockPartition& col_part) {
  check(row_part.total() == coo.rows(), "split_coo_grid: row partition for ",
        row_part.total(), " rows, matrix has ", coo.rows());
  check(col_part.total() == coo.cols(), "split_coo_grid: col partition for ",
        col_part.total(), " cols, matrix has ", coo.cols());

  std::vector<std::vector<CooMatrix>> grid(
      static_cast<std::size_t>(row_part.num_blocks()));
  for (Index rb = 0; rb < row_part.num_blocks(); ++rb) {
    auto& row_cells = grid[static_cast<std::size_t>(rb)];
    row_cells.reserve(static_cast<std::size_t>(col_part.num_blocks()));
    for (Index cb = 0; cb < col_part.num_blocks(); ++cb) {
      row_cells.emplace_back(row_part.size(rb), col_part.size(cb));
    }
  }

  const auto rows = coo.row_idx();
  const auto cols = coo.col_idx();
  const auto vals = coo.values();
  for (std::size_t k = 0; k < vals.size(); ++k) {
    const Index rb = row_part.block_of(rows[k]);
    const Index cb = col_part.block_of(cols[k]);
    grid[static_cast<std::size_t>(rb)][static_cast<std::size_t>(cb)]
        .push_back(rows[k] - row_part.begin(rb), cols[k] - col_part.begin(cb),
                   vals[k]);
  }
  return grid;
}

} // namespace dsk
