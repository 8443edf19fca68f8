#pragma once
/// \file util.hpp
/// Sample statistics and wall clock shared by the workloads and probes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation percentile (q in [0, 1]) of a non-empty sample.
inline double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// FNV-1a over 64-bit words: a digest for bit-identity checks.
inline std::uint64_t digest(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : values) {
    std::uint64_t w = 0;
    static_assert(sizeof(w) == sizeof(x));
    std::memcpy(&w, &x, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}

} // namespace perfbench
