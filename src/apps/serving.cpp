#include "apps/serving.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "local/width_dispatch.hpp"

namespace dsk {

Index snap_batch_width(Index pending, Index max_width, Index multiple) {
  check(pending >= 1, "snap_batch_width: no pending requests");
  check(max_width >= 1 && multiple >= 1,
        "snap_batch_width: max_width and multiple must be positive");
  Index width = std::min(pending, max_width);
  for (const Index spot : {Index{32}, Index{64}, Index{128}}) {
    if (spot >= width && spot <= max_width) {
      width = spot;
      break;
    }
  }
  return (width + multiple - 1) / multiple * multiple;
}

void fill_similarity_block(const DenseMatrix& a, std::span<const Index> users,
                           DenseMatrix& block, Slice rows) {
  const Index m = a.rows();
  const Index r = a.cols();
  const auto real = static_cast<Index>(users.size());
  check(block.rows() >= m && block.cols() >= real,
        "fill_similarity_block: ", real, " requests for ", m,
        " rows into a ", block.rows(), " x ", block.cols(), " block");
  check(rows.begin >= 0 && rows.begin <= rows.end &&
            rows.end <= block.rows(),
        "fill_similarity_block: rows [", rows.begin, ", ", rows.end,
        ") outside [0, ", block.rows(), ")");
  // The anchors sit in one contiguous block the whole sweep reads.
  DenseMatrix anchors = DenseMatrix::uninitialized(real, r);
  for (Index j = 0; j < real; ++j) {
    const Index user = users[static_cast<std::size_t>(j)];
    check(user >= 0 && user < m, "fill_similarity_block: user ", user,
          " out of range [0, ", m, ")");
    std::ranges::copy(a.row(user), anchors.row(j).begin());
  }
  const Index real_end = std::min(rows.end, m);
  dispatch_width(r, [&](auto w) {
    constexpr int kW = decltype(w)::value;
    for (Index i = rows.begin; i < real_end; ++i) {
      const Scalar* row = a.row(i).data();
      const auto out = block.row(i);
      for (Index j = 0; j < real; ++j) {
        out[static_cast<std::size_t>(j)] =
            dot_w<kW>(row, anchors.row(j).data(), r);
      }
      std::fill(out.begin() + real, out.end(), Scalar{0});
    }
  });
  for (Index i = std::max(rows.begin, m); i < rows.end; ++i) {
    std::ranges::fill(block.row(i), Scalar{0});
  }
}

void top_k_unrated(const DenseMatrix& scores, Index items,
                   std::span<const Index> users,
                   std::span<const std::vector<Index>> rated, int k,
                   Slice requests,
                   std::span<std::vector<Recommendation>> answers) {
  check(k >= 1, "top_k_unrated: needs k >= 1");
  check(items >= 0 && items <= scores.rows() &&
            static_cast<Index>(users.size()) <= scores.cols(),
        "top_k_unrated: ", items, " items and ", users.size(),
        " requests from a ", scores.rows(), " x ", scores.cols(),
        " score block");
  check(answers.size() == users.size() && requests.begin >= 0 &&
            requests.begin <= requests.end &&
            requests.end <= static_cast<Index>(users.size()),
        "top_k_unrated: requests [", requests.begin, ", ", requests.end,
        ") of ", users.size(), " into ", answers.size(), " answer slots");
  const auto first = static_cast<std::size_t>(requests.begin);
  const auto count = static_cast<std::size_t>(requests.end - requests.begin);
  const auto better = [](const Recommendation& x, const Recommendation& y) {
    return x.score != y.score ? x.score > y.score : x.item < y.item;
  };
  const auto keep = static_cast<std::size_t>(k);
  // Per request: the rated items the sweep has not passed yet, and (in
  // its answer slot) a heap of the best items so far with the worst of
  // them on top.
  std::vector<std::span<const Index>> rated_ahead;
  rated_ahead.reserve(count);
  for (const Index user : users.subspan(first, count)) {
    check(user >= 0 && static_cast<std::size_t>(user) < rated.size(),
          "top_k_unrated: user ", user, " has no rated list");
    rated_ahead.emplace_back(rated[static_cast<std::size_t>(user)]);
  }
  const auto heaps = answers.subspan(first, count);
  for (auto& heap : heaps) heap.clear();
  for (Index item = 0; item < items; ++item) {
    const Scalar* row = scores.row(item).data() + first;
    for (std::size_t j = 0; j < count; ++j) {
      auto& ahead = rated_ahead[j];
      while (!ahead.empty() && ahead.front() < item) ahead = ahead.subspan(1);
      if (!ahead.empty() && ahead.front() == item) continue;
      auto& heap = heaps[j];
      const Recommendation candidate{item, row[j]};
      if (heap.size() < keep) {
        heap.push_back(candidate);
        std::ranges::push_heap(heap, better);
      } else if (candidate.score > heap.front().score) {
        // Items arrive in ascending order, so a candidate that ties the
        // worst kept score ranks below it.
        std::ranges::pop_heap(heap, better);
        heap.back() = candidate;
        std::ranges::push_heap(heap, better);
      }
    }
  }
  for (auto& heap : heaps) std::ranges::sort_heap(heap, better);
}

} // namespace dsk
