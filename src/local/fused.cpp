#include "local/fused.hpp"

#include "common/error.hpp"
#include "local/width_dispatch.hpp"

namespace dsk {

namespace {

template <int W>
void fused_rows(const CsrMatrix& s, const DenseMatrix& a_in,
                const DenseMatrix& b, DenseMatrix& a_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = b.cols();
  for (Index i = 0; i < s.rows(); ++i) {
    const Scalar* a_row = a_in.row(i).data();
    Scalar* acc = a_out.row(i).data();
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const Scalar* b_row = b.row(col_idx[kk]).data();
      const Scalar weight = values[kk] * dot_w<W>(a_row, b_row, r);
      axpy_w<W>(weight, b_row, acc, r);
    }
  }
}

void validate(const CsrMatrix& s, const DenseMatrix& a_in,
              const DenseMatrix& b, const DenseMatrix& a_out) {
  check(a_in.rows() == s.rows(), "fusedmm_a: A_in has ", a_in.rows(),
        " rows, S has ", s.rows());
  check(b.rows() == s.cols(), "fusedmm_a: B has ", b.rows(), " rows, S has ",
        s.cols(), " cols");
  check(a_out.rows() == s.rows() && a_out.cols() == b.cols(),
        "fusedmm_a: output shape ", a_out.rows(), "x", a_out.cols(),
        " does not match ", s.rows(), "x", b.cols());
  check(a_in.cols() == b.cols(), "fusedmm_a: A width ", a_in.cols(),
        " != B width ", b.cols());
}

} // namespace

std::uint64_t fusedmm_a(const CsrMatrix& s, const DenseMatrix& a_in,
                        const DenseMatrix& b, DenseMatrix& a_out) {
  validate(s, a_in, b, a_out);
  dispatch_width(b.cols(), [&](auto w) {
    fused_rows<decltype(w)::value>(s, a_in, b, a_out);
  });
  return 4ULL * static_cast<std::uint64_t>(s.nnz()) *
         static_cast<std::uint64_t>(b.cols());
}

} // namespace dsk
