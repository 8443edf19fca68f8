#include "sparse/generate.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"

namespace dsk {

CooMatrix erdos_renyi_fixed_row(Index rows, Index cols, Index nnz_per_row,
                                Rng& rng) {
  check(nnz_per_row >= 0 && nnz_per_row <= cols,
        "erdos_renyi_fixed_row: nnz_per_row ", nnz_per_row,
        " exceeds column count ", cols);
  check(rows >= 0, "erdos_renyi_fixed_row: negative row count ", rows);
  check(nnz_per_row == 0 ||
            rows <= std::numeric_limits<Index>::max() / nnz_per_row,
        "erdos_renyi_fixed_row: ", rows, " x ", nnz_per_row,
        " nonzeros overflow the Index range");
  CooMatrix out(rows, cols);
  out.reserve(rows * nnz_per_row);

  // Per-row sampling without replacement. For the sparse regime the paper
  // uses (32 nonzeros out of >= 65536 columns) rejection is cheap; fall
  // back to a partial Fisher-Yates when a row is dense.
  std::unordered_set<Index> seen;
  std::vector<Index> row_cols;
  for (Index i = 0; i < rows; ++i) {
    seen.clear();
    if (nnz_per_row * 4 < cols) {
      while (static_cast<Index>(seen.size()) < nnz_per_row) {
        seen.insert(rng.next_index(0, cols));
      }
      // The set's contents are deterministic (the rng drives the draw
      // sequence) but its ITERATION order is not — it follows the
      // standard library's hashing, so pairing values with columns in
      // set order produced different matrices across platforms and
      // poisoned committed bench baselines. Sort the columns first,
      // then draw the values: one canonical (column, value) pairing
      // everywhere.
      row_cols.assign(seen.begin(), seen.end());
      std::sort(row_cols.begin(), row_cols.end());
      for (const Index j : row_cols) {
        out.push_back(i, j, rng.next_in(-1.0, 1.0));
      }
    } else {
      std::vector<Index> perm(static_cast<std::size_t>(cols));
      for (Index j = 0; j < cols; ++j) perm[static_cast<std::size_t>(j)] = j;
      for (Index k = 0; k < nnz_per_row; ++k) {
        const Index swap_at = rng.next_index(k, cols);
        std::swap(perm[static_cast<std::size_t>(k)],
                  perm[static_cast<std::size_t>(swap_at)]);
        out.push_back(i, perm[static_cast<std::size_t>(k)],
                      rng.next_in(-1.0, 1.0));
      }
    }
  }
  out.sort_and_combine();
  return out;
}

CooMatrix rmat(Index rows, Index cols, Index edges_target, Rng& rng,
               const RmatParams& params) {
  const double d = 1.0 - params.a - params.b - params.c;
  check(params.a >= 0 && params.b >= 0 && params.c >= 0 && d >= 0,
        "rmat: probabilities must be non-negative and sum to <= 1");
  check(rows > 0 && cols > 0, "rmat: empty matrix");

  const Index side = std::max(rows, cols);
  const int levels = std::bit_width(static_cast<std::uint64_t>(side - 1));

  CooMatrix out(rows, cols);
  out.reserve(edges_target);
  Index accepted = 0;
  // Cap the re-draw loop so degenerate parameter choices cannot spin
  // forever when most samples land outside a non-square matrix.
  const Index max_attempts = edges_target * 16 + 1024;
  for (Index attempt = 0; attempt < max_attempts && accepted < edges_target;
       ++attempt) {
    Index i = 0, j = 0;
    for (int level = 0; level < levels; ++level) {
      const double u = rng.next_double();
      Index bit_i = 0, bit_j = 0;
      if (u < params.a) {
      } else if (u < params.a + params.b) {
        bit_j = 1;
      } else if (u < params.a + params.b + params.c) {
        bit_i = 1;
      } else {
        bit_i = 1;
        bit_j = 1;
      }
      i = (i << 1) | bit_i;
      j = (j << 1) | bit_j;
    }
    if (i >= rows || j >= cols) continue;
    if (params.remove_self_loops && i == j) continue;
    out.push_back(i, j, rng.next_in(-1.0, 1.0));
    ++accepted;
  }
  out.sort_and_combine();
  return out;
}

double phi_ratio(const CooMatrix& s, Index r) {
  check(r > 0, "phi_ratio: r must be positive");
  return static_cast<double>(s.nnz()) /
         (static_cast<double>(s.cols()) * static_cast<double>(r));
}

} // namespace dsk
