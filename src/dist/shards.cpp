#include "dist/shards.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/convert.hpp"

namespace dsk {

// The pack/unpack bodies are thin delegates into the wire-codec layer
// (runtime/wire.hpp) — the byte layouts, validation, and word accounting
// live there, in one place, for every message class.

MessageWords pack_triplets(const Triplets& t, const WireCodec& codec) {
  return encode_triplets(t.rows, t.cols, t.values, codec);
}

Triplets unpack_triplets(const MessageWords& words, const WireCodec& codec) {
  auto decoded = decode_triplets(words, codec);
  Triplets t;
  t.rows = std::move(decoded.rows);
  t.cols = std::move(decoded.cols);
  t.values = std::move(decoded.values);
  return t;
}

MessageWords pack_dense(const DenseMatrix& m) {
  return encode_dense(m, WireCodec{});
}

DenseMatrix unpack_dense(const MessageWords& words, Index rows, Index cols) {
  check(dense_words(rows, cols) == words.size(),
        "unpack_dense: ", words.size(), " words do not form a ", rows, " x ",
        cols, " matrix");
  DenseMatrix m = DenseMatrix::uninitialized(rows, cols);
  decode_dense(words, m, WireCodec{});
  return m;
}

MessageWords pack_values(std::span<const Scalar> values,
                         const WireCodec& codec) {
  return encode_values(values, codec);
}

std::vector<Scalar> unpack_values(const MessageWords& words,
                                  std::int64_t count,
                                  const WireCodec& codec) {
  return decode_values(words, count, codec);
}

namespace {

/// One axis of draw_block_maps: `degree.size()` indices into `blocks`
/// blocks of equal size. The indices are ranked by nonzero count
/// (heaviest first, ties by index), and every run of `blocks`
/// consecutive ranks takes a fresh random permutation of the block
/// labels: each index's block is uniform, the counts are equal, and the
/// heavy indices — R-MAT's hubs, which crowd the low indices of its
/// natural order — spread evenly over the blocks. A scan in caller order
/// then hands out each block's planned slots in that order.
AxisMap draw_axis(const std::vector<Index>& degree, int blocks, Rng& rng) {
  AxisMap map;
  if (blocks <= 1) return map;
  const auto n = static_cast<Index>(degree.size());
  check(n > 0 && n % blocks == 0, "draw_block_maps: ", n,
        " indices do not split into ", blocks, " blocks");
  const Index size = n / blocks;
  // Counting sort, heaviest first; the placement pass runs in index
  // order, so ties keep it.
  const Index top = *std::max_element(degree.begin(), degree.end());
  std::vector<Index> slot(static_cast<std::size_t>(top) + 2, 0);
  for (const Index d : degree) ++slot[static_cast<std::size_t>(top - d + 1)];
  std::partial_sum(slot.begin(), slot.end(), slot.begin());
  std::vector<Index> rank(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const auto d = static_cast<std::size_t>(
        top - degree[static_cast<std::size_t>(i)]);
    rank[static_cast<std::size_t>(slot[d]++)] = i;
  }
  std::vector<Index> label(static_cast<std::size_t>(n));
  std::vector<Index> run(static_cast<std::size_t>(blocks));
  for (Index k = 0; k < n; k += blocks) {
    std::iota(run.begin(), run.end(), Index{0});
    for (Index i = blocks - 1; i > 0; --i) {
      std::swap(run[static_cast<std::size_t>(i)],
                run[static_cast<std::size_t>(rng.next_index(0, i + 1))]);
    }
    for (Index i = 0; i < blocks; ++i) {
      label[static_cast<std::size_t>(rank[static_cast<std::size_t>(k + i)])] =
          run[static_cast<std::size_t>(i)];
    }
  }
  std::vector<Index> next(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    next[static_cast<std::size_t>(b)] = b * size;
  }
  map.to.resize(static_cast<std::size_t>(n));
  map.from.resize(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const Index planned = next[static_cast<std::size_t>(label[ii])]++;
    map.to[ii] = planned;
    map.from[static_cast<std::size_t>(planned)] = i;
  }
  return map;
}

/// Throws unless each axis map is the identity or covers s's dims.
void check_maps_fit(const BlockMaps& maps, const CooMatrix& s,
                    const char* what) {
  const auto fits = [](const AxisMap& map, Index n) {
    return map.identity() || (static_cast<Index>(map.to.size()) == n &&
                              static_cast<Index>(map.from.size()) == n);
  };
  check(fits(maps.rows, s.rows()) && fits(maps.cols, s.cols()), what,
        ": block maps of ", maps.rows.to.size(), " x ", maps.cols.to.size(),
        " for a ", s.rows(), " x ", s.cols(), " matrix");
}

} // namespace

double block_imbalance(const CooMatrix& s, BlockGrid grid,
                       const BlockMaps& maps) {
  check_maps_fit(maps, s, "block_imbalance");
  check(grid.row_blocks >= 1 && grid.col_blocks >= 1 &&
            s.rows() % grid.row_blocks == 0 &&
            s.cols() % grid.col_blocks == 0,
        "block_imbalance: ", s.rows(), " x ", s.cols(),
        " does not split into ", grid.row_blocks, " x ", grid.col_blocks,
        " blocks");
  if (s.nnz() == 0) return 1.0;
  // Each index's share of its cell number, so the entry pass only adds.
  const auto cell_part = [](const AxisMap& map, Index n, int blocks,
                            Index stride) {
    const Index size = n / blocks;
    std::vector<Index> part(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      part[static_cast<std::size_t>(i)] = map(i) / size * stride;
    }
    return part;
  };
  const auto row_part =
      cell_part(maps.rows, s.rows(), grid.row_blocks, grid.col_blocks);
  const auto col_part = cell_part(maps.cols, s.cols(), grid.col_blocks, 1);
  std::vector<Index> counts(static_cast<std::size_t>(grid.row_blocks) *
                                static_cast<std::size_t>(grid.col_blocks),
                            0);
  const auto rows = s.row_idx();
  const auto cols = s.col_idx();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    ++counts[static_cast<std::size_t>(
        row_part[static_cast<std::size_t>(rows[k])] +
        col_part[static_cast<std::size_t>(cols[k])])];
  }
  const Index most = *std::max_element(counts.begin(), counts.end());
  return static_cast<double>(most) * static_cast<double>(counts.size()) /
         static_cast<double>(s.nnz());
}

BlockMaps draw_block_maps(const CooMatrix& s, BlockGrid grid,
                          std::uint64_t seed) {
  std::vector<Index> row_degree(static_cast<std::size_t>(s.rows()), 0);
  std::vector<Index> col_degree(static_cast<std::size_t>(s.cols()), 0);
  for (const Index i : s.row_idx()) ++row_degree[static_cast<std::size_t>(i)];
  for (const Index j : s.col_idx()) ++col_degree[static_cast<std::size_t>(j)];
  Rng rng(seed);
  BlockMaps maps;
  maps.rows = draw_axis(row_degree, grid.row_blocks, rng);
  maps.cols = draw_axis(col_degree, grid.col_blocks, rng);
  return maps;
}

std::vector<SparseShard> shard_coo(
    const CooMatrix& s, int buckets,
    const std::function<int(Index, Index)>& bucket_of,
    const std::function<std::pair<Index, Index>(Index, Index)>& rebase,
    const std::function<std::pair<Index, Index>(int)>& shape,
    const BlockMaps& maps) {
  check(buckets >= 1, "shard_coo: need at least one bucket");
  check_maps_fit(maps, s, "shard_coo");
  std::vector<SparseShard> shards(static_cast<std::size_t>(buckets));
  const auto rows = s.row_idx();
  const auto cols = s.col_idx();
  const auto values = s.values();
  for (Index k = 0; k < s.nnz(); ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const Index row = maps.rows(rows[kk]);
    const Index col = maps.cols(cols[kk]);
    const int b = bucket_of(row, col);
    check(0 <= b && b < buckets, "shard_coo: entry (", row, ", ", col,
          ") mapped to bucket ", b, " of ", buckets);
    auto& shard = shards[static_cast<std::size_t>(b)];
    const auto [r, c] = rebase(row, col);
    shard.coo.rows.push_back(r);
    shard.coo.cols.push_back(c);
    shard.coo.values.push_back(values[kk]);
    shard.entries.push_back(k);
  }
  for (int b = 0; b < buckets; ++b) {
    auto& shard = shards[static_cast<std::size_t>(b)];
    const auto [nrows, ncols] = shape(b);
    CooMatrix block(nrows, ncols, shard.coo.rows, shard.coo.cols,
                    shard.coo.values);
    check(block.is_sorted_unique(),
          "shard_coo: bucket ", b, " lost the global entry order");
    shard.csr = coo_to_csr(block);
    const auto row_ptr = shard.csr.row_ptr();
    for (Index i = 0; i < nrows; ++i) {
      if (row_ptr[static_cast<std::size_t>(i + 1)] >
          row_ptr[static_cast<std::size_t>(i)]) {
        shard.row_support.push_back(i);
      }
    }
    shard.col_support = shard.coo.cols;
    std::sort(shard.col_support.begin(), shard.col_support.end());
    shard.col_support.erase(
        std::unique(shard.col_support.begin(), shard.col_support.end()),
        shard.col_support.end());
  }
  return shards;
}

std::vector<Index> union_row_support(
    const std::vector<const SparseShard*>& shards, Index rows) {
  std::vector<char> touched(static_cast<std::size_t>(rows), 0);
  for (const SparseShard* shard : shards) {
    for (const Index row : shard->row_support) {
      check(0 <= row && row < rows, "union_row_support: row ", row,
            " outside [0, ", rows, ")");
      touched[static_cast<std::size_t>(row)] = 1;
    }
  }
  std::vector<Index> support;
  for (Index i = 0; i < rows; ++i) {
    if (touched[static_cast<std::size_t>(i)] != 0) support.push_back(i);
  }
  return support;
}

namespace {

/// Row `row0 + i` of an m-row matrix in caller order: itself, or
/// from[row0 + i] under a row map.
Index mapped_row(std::span<const Index> from, Index row0, Index i) {
  return from.empty() ? row0 + i
                      : from[static_cast<std::size_t>(row0 + i)];
}

void check_map(std::span<const Index> from, Index rows, const char* what) {
  check(from.empty() || static_cast<Index>(from.size()) == rows, what,
        ": row map of ", from.size(), " entries for ", rows, " rows");
}

} // namespace

DenseMatrix dense_block(const DenseMatrix& src, Index row0, Index rows,
                        Index col0, Index cols,
                        std::span<const Index> from) {
  check(row0 >= 0 && col0 >= 0 && row0 + rows <= src.rows() &&
            col0 + cols <= src.cols(),
        "dense_block: block [", row0, "+", rows, ", ", col0, "+", cols,
        ") exceeds ", src.rows(), " x ", src.cols());
  check_map(from, src.rows(), "dense_block");
  if (from.empty() && cols == src.cols()) {
    return src.row_block(row0, row0 + rows);
  }
  // Every row is copied whole, so the block starts unwritten.
  DenseMatrix out = DenseMatrix::uninitialized(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    const auto src_row = src.row(mapped_row(from, row0, i));
    std::memcpy(out.row(i).data(), src_row.data() + col0,
                static_cast<std::size_t>(cols) * sizeof(Scalar));
  }
  return out;
}

void place_block(DenseMatrix& dst, const DenseMatrix& src, Index row0,
                 Index col0, std::span<const Index> from) {
  check(row0 >= 0 && col0 >= 0 && row0 + src.rows() <= dst.rows() &&
            col0 + src.cols() <= dst.cols(),
        "place_block: block [", row0, "+", src.rows(), ", ", col0, "+",
        src.cols(), ") exceeds ", dst.rows(), " x ", dst.cols());
  check_map(from, dst.rows(), "place_block");
  for (Index i = 0; i < src.rows(); ++i) {
    std::memcpy(dst.row(mapped_row(from, row0, i)).data() + col0,
                src.row(i).data(),
                static_cast<std::size_t>(src.cols()) * sizeof(Scalar));
  }
}

} // namespace dsk
