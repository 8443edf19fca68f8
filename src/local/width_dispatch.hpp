#pragma once
/// \file width_dispatch.hpp
/// Compile-time feature-width specialization for the local kernels. Every
/// hot loop in SDDMM/SpMM/FusedMM is a dot product or axpy over the
/// embedding width r; the paper benchmarks r in {32, 64, 128}, and the
/// 2.5D sparse-replicating family runs its kernels on width slices
/// r/(qc), which is 16 at r = 32 on a 2 x 2 grid. Templating the inner
/// loop on a compile-time width lets the compiler unroll it (and the dot
/// product gets independent partial accumulators for ILP); a
/// runtime switch picks the matching instance or falls back to the
/// generic runtime-width loop for any other r.
///
/// Usage:
///   dispatch_width(r, [&](auto w) { kernel<w.value>(...); });
/// where kernel's inner loops call dot_w<W> / axpy_w<W>. W == 0 denotes
/// the generic runtime-width fallback.

#include <utility>

#include "common/types.hpp"

namespace dsk {

/// Tag carrying a compile-time feature width; 0 means runtime width.
template <int W>
struct WidthTag {
  static constexpr int value = W;
};

/// Invoke k with the WidthTag<R> matching r (the paper's benchmark widths
/// 32/64/128 and the 2.5D slice width 16), or WidthTag<0> (generic) for
/// any other width.
template <typename Kernel>
decltype(auto) dispatch_width(Index r, Kernel&& k) {
  switch (r) {
    case 16: return std::forward<Kernel>(k)(WidthTag<16>{});
    case 32: return std::forward<Kernel>(k)(WidthTag<32>{});
    case 64: return std::forward<Kernel>(k)(WidthTag<64>{});
    case 128: return std::forward<Kernel>(k)(WidthTag<128>{});
    default: return std::forward<Kernel>(k)(WidthTag<0>{});
  }
}

/// Four Scalars in one GCC/Clang vector (256 bits): the unit the
/// specialized loops below multiply-add in. Arithmetic on it is packed
/// by construction, so every specialized width compiles to packed FMAs
/// without -ffast-math; plain fixed-trip loops do not always vectorize
/// (GCC 12 at -O3 -march=native left the 8-lane dot scalar at W = 32 and
/// the spmm_b scatter axpy scalar at W = 16). The loops fill it from,
/// and store it to, four adjacent Scalars, which compilers merge into
/// one vector load or store while the Scalar-typed accesses keep their
/// type-based alias information.
using ScalarX4 = Scalar __attribute__((vector_size(4 * sizeof(Scalar))));

/// dot(a, b) over W entries (or r entries when W == 0). Specialized
/// widths keep eight lane sums: lane l adds a[f] * b[f] for f = l mod 8
/// in order of f, then lanes 0..7 are added in order. The lanes are two
/// ScalarX4 halves; one 8-wide vector would pull in 512-bit FMAs where
/// GCC otherwise prefers 256-bit ones. This reorders the summation
/// relative to the generic loop, which is why kernel tests compare with
/// a tolerance.
template <int W>
inline Scalar dot_w(const Scalar* __restrict a, const Scalar* __restrict b,
                    Index r) {
  static_assert(W == 0 || W % 8 == 0, "specialized widths must be 8-aligned");
  if constexpr (W > 0) {
    ScalarX4 lo = {0, 0, 0, 0};
    ScalarX4 hi = {0, 0, 0, 0};
    for (int f = 0; f < W; f += 8) {
      const ScalarX4 a_lo = {a[f], a[f + 1], a[f + 2], a[f + 3]};
      const ScalarX4 a_hi = {a[f + 4], a[f + 5], a[f + 6], a[f + 7]};
      const ScalarX4 b_lo = {b[f], b[f + 1], b[f + 2], b[f + 3]};
      const ScalarX4 b_hi = {b[f + 4], b[f + 5], b[f + 6], b[f + 7]};
      lo += a_lo * b_lo;
      hi += a_hi * b_hi;
    }
    Scalar dot = 0;
    for (int l = 0; l < 4; ++l) {
      dot += lo[l];
    }
    for (int l = 0; l < 4; ++l) {
      dot += hi[l];
    }
    return dot;
  } else {
    Scalar dot = 0;
    for (Index f = 0; f < r; ++f) {
      dot += a[f] * b[f];
    }
    return dot;
  }
}

/// acc += v * x over W entries (or r entries when W == 0). Each entry is
/// one multiply-add either way, so both paths give the same bits.
template <int W>
inline void axpy_w(Scalar v, const Scalar* __restrict x,
                   Scalar* __restrict acc, Index r) {
  static_assert(W == 0 || W % 8 == 0, "specialized widths must be 8-aligned");
  if constexpr (W > 0) {
    for (int f = 0; f < W; f += 4) {
      const ScalarX4 xs = {x[f], x[f + 1], x[f + 2], x[f + 3]};
      ScalarX4 sum = {acc[f], acc[f + 1], acc[f + 2], acc[f + 3]};
      sum += v * xs;
      for (int l = 0; l < 4; ++l) {
        acc[f + l] = sum[l];
      }
    }
  } else {
    for (Index f = 0; f < r; ++f) {
      acc[f] += v * x[f];
    }
  }
}

} // namespace dsk
