#include "dist/shards.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
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

std::vector<SparseShard> shard_coo(
    const CooMatrix& s, int buckets,
    const std::function<int(Index, Index)>& bucket_of,
    const std::function<std::pair<Index, Index>(Index, Index)>& rebase,
    const std::function<std::pair<Index, Index>(int)>& shape) {
  check(buckets >= 1, "shard_coo: need at least one bucket");
  std::vector<SparseShard> shards(static_cast<std::size_t>(buckets));
  const auto rows = s.row_idx();
  const auto cols = s.col_idx();
  const auto values = s.values();
  for (Index k = 0; k < s.nnz(); ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const int b = bucket_of(rows[kk], cols[kk]);
    check(0 <= b && b < buckets, "shard_coo: entry (", rows[kk], ", ",
          cols[kk], ") mapped to bucket ", b, " of ", buckets);
    auto& shard = shards[static_cast<std::size_t>(b)];
    const auto [r, c] = rebase(rows[kk], cols[kk]);
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

DenseMatrix dense_block(const DenseMatrix& src, Index row0, Index rows,
                        Index col0, Index cols) {
  check(row0 >= 0 && col0 >= 0 && row0 + rows <= src.rows() &&
            col0 + cols <= src.cols(),
        "dense_block: block [", row0, "+", rows, ", ", col0, "+", cols,
        ") exceeds ", src.rows(), " x ", src.cols());
  DenseMatrix out(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    const auto src_row = src.row(row0 + i);
    std::memcpy(out.row(i).data(), src_row.data() + col0,
                static_cast<std::size_t>(cols) * sizeof(Scalar));
  }
  return out;
}

void place_block(DenseMatrix& dst, const DenseMatrix& src, Index row0,
                 Index col0) {
  check(row0 >= 0 && col0 >= 0 && row0 + src.rows() <= dst.rows() &&
            col0 + src.cols() <= dst.cols(),
        "place_block: block [", row0, "+", src.rows(), ", ", col0, "+",
        src.cols(), ") exceeds ", dst.rows(), " x ", dst.cols());
  for (Index i = 0; i < src.rows(); ++i) {
    std::memcpy(dst.row(row0 + i).data() + col0, src.row(i).data(),
                static_cast<std::size_t>(src.cols()) * sizeof(Scalar));
  }
}

} // namespace dsk
