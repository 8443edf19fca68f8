#include "local/sddmm.hpp"

#include "common/error.hpp"
#include "local/schedule.hpp"
#include "local/thread_pool.hpp"
#include "local/width_dispatch.hpp"

namespace dsk {

namespace {

template <int W>
void sddmm_rows(const CsrMatrix& pattern, const DenseMatrix& a,
                const DenseMatrix& b, std::span<Scalar> dots,
                Index row_begin, Index row_end) {
  const auto row_ptr = pattern.row_ptr();
  const auto col_idx = pattern.col_idx();
  const Index r = a.cols();
  for (Index i = row_begin; i < row_end; ++i) {
    const Scalar* a_row = a.row(i).data();
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      dots[kk] += dot_w<W>(a_row, b.row(col_idx[kk]).data(), r);
    }
  }
}

} // namespace

std::uint64_t masked_dot_products(const CsrMatrix& pattern,
                                  const DenseMatrix& a, const DenseMatrix& b,
                                  std::span<Scalar> dots, ThreadPool* pool) {
  check(a.rows() == pattern.rows(), "masked_dot_products: A has ", a.rows(),
        " rows, S has ", pattern.rows());
  check(b.rows() == pattern.cols(), "masked_dot_products: B has ", b.rows(),
        " rows, S has ", pattern.cols(), " cols");
  check(a.cols() == b.cols(), "masked_dot_products: A width ", a.cols(),
        " != B width ", b.cols());
  check(static_cast<Index>(dots.size()) == pattern.nnz(),
        "masked_dot_products: dots length ", dots.size(), " != nnz ",
        pattern.nnz());

  dispatch_width(a.cols(), [&](auto w) {
    constexpr int W = decltype(w)::value;
    if (pool != nullptr) {
      const auto bounds = partition_rows_by_nnz(
          pattern.row_ptr(), pool->num_threads() * over_decomposition());
      pool->parallel_for_dynamic(bounds, [&](Index begin, Index end) {
        sddmm_rows<W>(pattern, a, b, dots, begin, end);
      });
    } else {
      sddmm_rows<W>(pattern, a, b, dots, 0, pattern.rows());
    }
  });
  return 2ULL * static_cast<std::uint64_t>(pattern.nnz()) *
         static_cast<std::uint64_t>(a.cols());
}

void hadamard_values(std::span<const Scalar> s_values,
                     std::span<const Scalar> dots, std::span<Scalar> out) {
  check(s_values.size() == dots.size() && dots.size() == out.size(),
        "hadamard_values: length mismatch");
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = s_values[k] * dots[k];
  }
}

CsrMatrix sddmm(const CsrMatrix& s, const DenseMatrix& a,
                const DenseMatrix& b, ThreadPool* pool) {
  CsrMatrix out = s;
  std::vector<Scalar> dots(static_cast<std::size_t>(s.nnz()), Scalar{0});
  masked_dot_products(s, a, b, dots, pool);
  hadamard_values(s.values(), dots, out.values());
  return out;
}

} // namespace dsk
