#include "local/spmm.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "local/schedule.hpp"
#include "local/thread_pool.hpp"
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
                 DenseMatrix& a_out, Index row_begin, Index row_end) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = b.cols();
  const Index nnz_end = row_ptr[static_cast<std::size_t>(row_end)];
  for (Index i = row_begin; i < row_end; ++i) {
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
void spmm_b_scatter(const CsrMatrix& s, const DenseMatrix& a, Scalar* out,
                    Index row_begin, Index row_end) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = a.cols();
  for (Index i = row_begin; i < row_end; ++i) {
    const Scalar* a_row = a.row(i).data();
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      axpy_w<W>(values[kk], a_row, out + col_idx[kk] * r, r);
    }
  }
}

/// Parallel SpMM-B: each part scatters its nnz-balanced share of input
/// rows into a private output-sized buffer (part 0 scatters straight into
/// b_out, which already accumulates), then a strip reduction adds the
/// private buffers into b_out in parallel over output rows. No atomics.
template <int W>
void spmm_b_parallel(const CsrMatrix& s, const DenseMatrix& a,
                     DenseMatrix& b_out, ThreadPool& pool) {
  const int parts = pool.num_threads();
  const auto bounds = partition_rows_by_nnz(s.row_ptr(), parts);
  const std::size_t out_size =
      static_cast<std::size_t>(b_out.rows()) *
      static_cast<std::size_t>(b_out.cols());

  std::vector<std::vector<Scalar>> scratch(
      static_cast<std::size_t>(parts));
  pool.parallel_for_parts(bounds, [&](int part, Index begin, Index end) {
    Scalar* out;
    if (part == 0) {
      out = b_out.data().data();
    } else {
      // Zeroed inside the worker so the big memset runs in parallel too.
      scratch[static_cast<std::size_t>(part)].assign(out_size, Scalar{0});
      out = scratch[static_cast<std::size_t>(part)].data();
    }
    spmm_b_scatter<W>(s, a, out, begin, end);
  });

  const Index r = b_out.cols();
  pool.parallel_for(0, b_out.rows(), [&](Index row_begin, Index row_end) {
    for (const auto& buf : scratch) {
      if (buf.empty()) continue;
      for (Index i = row_begin; i < row_end; ++i) {
        const Scalar* src = buf.data() + i * r;
        Scalar* acc = b_out.row(i).data();
        for (Index f = 0; f < r; ++f) {
          acc[static_cast<std::size_t>(f)] += src[static_cast<std::size_t>(f)];
        }
      }
    }
  });
}

} // namespace

std::uint64_t spmm_a(const CsrMatrix& s, const DenseMatrix& b,
                     DenseMatrix& a_out, ThreadPool* pool) {
  check(b.rows() == s.cols(), "spmm_a: B has ", b.rows(), " rows, S has ",
        s.cols(), " cols");
  check(a_out.rows() == s.rows(), "spmm_a: output has ", a_out.rows(),
        " rows, S has ", s.rows());
  check(a_out.cols() == b.cols(), "spmm_a: output width ", a_out.cols(),
        " != B width ", b.cols());

  dispatch_width(b.cols(), [&](auto w) {
    constexpr int W = decltype(w)::value;
    if (pool != nullptr) {
      // Over-decomposition (schedule.hpp): more parts than threads caps
      // the damage a hub-dominated part can do to the schedule.
      const auto bounds = partition_rows_by_nnz(
          s.row_ptr(), pool->num_threads() * over_decomposition());
      pool->parallel_for_dynamic(bounds, [&](Index begin, Index end) {
        spmm_a_rows<W>(s, b, a_out, begin, end);
      });
    } else {
      spmm_a_rows<W>(s, b, a_out, 0, s.rows());
    }
  });
  return 2ULL * static_cast<std::uint64_t>(s.nnz()) *
         static_cast<std::uint64_t>(b.cols());
}

std::uint64_t spmm_b(const CsrMatrix& s, const DenseMatrix& a,
                     DenseMatrix& b_out, ThreadPool* pool) {
  check(a.rows() == s.rows(), "spmm_b: A has ", a.rows(), " rows, S has ",
        s.rows());
  check(b_out.rows() == s.cols(), "spmm_b: output has ", b_out.rows(),
        " rows, S has ", s.cols(), " cols");
  check(b_out.cols() == a.cols(), "spmm_b: output width ", b_out.cols(),
        " != A width ", a.cols());

  dispatch_width(a.cols(), [&](auto w) {
    constexpr int W = decltype(w)::value;
    if (pool != nullptr && pool->num_threads() > 1 && s.nnz() > 0) {
      spmm_b_parallel<W>(s, a, b_out, *pool);
    } else {
      spmm_b_scatter<W>(s, a, b_out.data().data(), 0, s.rows());
    }
  });
  return 2ULL * static_cast<std::uint64_t>(s.nnz()) *
         static_cast<std::uint64_t>(a.cols());
}

} // namespace dsk
