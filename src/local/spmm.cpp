#include "local/spmm.hpp"

#include "common/error.hpp"
#include "local/width_dispatch.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define DSK_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define DSK_PREFETCH(addr) ((void)0)
#endif

namespace dsk {

namespace {

template <int W>
void spmm_a_rows(const CsrMatrix& s, const DenseMatrix& b,
                 DenseMatrix& a_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = b.cols();
  const Index nnz_end = row_ptr.back();
  for (Index i = 0; i < s.rows(); ++i) {
    const Index nz_begin = row_ptr[static_cast<std::size_t>(i)];
    const Index nz_end = row_ptr[static_cast<std::size_t>(i) + 1];
    Scalar* acc = a_out.row(i).data();
    for (Index k = nz_begin; k < nz_end; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      if (k + 1 < nnz_end) {
        // The gather of B rows is the bound; hint the next row's line
        // while the current axpy runs.
        DSK_PREFETCH(b.row(col_idx[kk + 1]).data());
      }
      axpy_w<W>(values[kk], b.row(col_idx[kk]).data(), acc, r);
    }
  }
}

template <int W>
void spmm_b_scatter(const CsrMatrix& s, const DenseMatrix& a,
                    DenseMatrix& b_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = a.cols();
  Scalar* out = b_out.data().data();
  for (Index i = 0; i < s.rows(); ++i) {
    const Scalar* a_row = a.row(i).data();
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      axpy_w<W>(values[kk], a_row, out + col_idx[kk] * r, r);
    }
  }
}

} // namespace

std::uint64_t spmm_a(const CsrMatrix& s, const DenseMatrix& b,
                     DenseMatrix& a_out) {
  check(b.rows() == s.cols(), "spmm_a: B has ", b.rows(), " rows, S has ",
        s.cols(), " cols");
  check(a_out.rows() == s.rows(), "spmm_a: output has ", a_out.rows(),
        " rows, S has ", s.rows());
  check(a_out.cols() == b.cols(), "spmm_a: output width ", a_out.cols(),
        " != B width ", b.cols());

  dispatch_width(b.cols(), [&](auto w) {
    spmm_a_rows<decltype(w)::value>(s, b, a_out);
  });
  return 2ULL * static_cast<std::uint64_t>(s.nnz()) *
         static_cast<std::uint64_t>(b.cols());
}

std::uint64_t spmm_b(const CsrMatrix& s, const DenseMatrix& a,
                     DenseMatrix& b_out) {
  check(a.rows() == s.rows(), "spmm_b: A has ", a.rows(), " rows, S has ",
        s.rows());
  check(b_out.rows() == s.cols(), "spmm_b: output has ", b_out.rows(),
        " rows, S has ", s.cols(), " cols");
  check(b_out.cols() == a.cols(), "spmm_b: output width ", b_out.cols(),
        " != A width ", a.cols());

  dispatch_width(a.cols(), [&](auto w) {
    spmm_b_scatter<decltype(w)::value>(s, a, b_out);
  });
  return 2ULL * static_cast<std::uint64_t>(s.nnz()) *
         static_cast<std::uint64_t>(a.cols());
}

} // namespace dsk
