/// Local (shared-memory) kernel microbenchmarks — the Section III-A
/// substrate: CSR SDDMM, SpMM in both orientations, and the fused
/// FusedMM kernel. Each kernel is measured serially in two
/// implementations on a power-law (R-MAT) matrix:
///
///   seed      — the seed repo's kernels: generic scalar inner loop
///               (replicated here verbatim as the baseline)
///   tuned     — the current library kernels: width-specialized
///               (r in {16,32,64,128}) inner loops; 16 is the 2.5D
///               sparse-replicating slice width r/(qc) at r = 32, q = 2
///
/// Results are printed as a table and written as a flat JSON array
/// (default BENCH_local_kernels.json) with one record per (kernel, impl,
/// r): kernel, impl, n, nnz, r, seconds, gflops — the repo's
/// perf-trajectory format.
///
/// Usage: bench_local_kernels [--n N] [--edges-per-row E]
///                            [--out PATH] [--quick]
/// N and E are integers >= 1.

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "local/fused.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace {

using namespace dsk;

// ------------------------------------------------------------------
// Seed-kernel replicas: the exact inner loops the repo shipped with,
// kept here as the fixed baseline the tuned kernels are measured against.

void seed_spmm_a(const CsrMatrix& s, const DenseMatrix& b,
                 DenseMatrix& a_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = b.cols();
  for (Index i = 0; i < s.rows(); ++i) {
    auto acc = a_out.row(i);
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const Scalar v = values[static_cast<std::size_t>(k)];
      const auto b_row = b.row(col_idx[static_cast<std::size_t>(k)]);
      for (Index f = 0; f < r; ++f) {
        acc[static_cast<std::size_t>(f)] +=
            v * b_row[static_cast<std::size_t>(f)];
      }
    }
  }
}

void seed_spmm_b(const CsrMatrix& s, const DenseMatrix& a,
                 DenseMatrix& b_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = a.cols();
  for (Index i = 0; i < s.rows(); ++i) {
    const auto a_row = a.row(i);
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const Scalar v = values[static_cast<std::size_t>(k)];
      auto acc = b_out.row(col_idx[static_cast<std::size_t>(k)]);
      for (Index f = 0; f < r; ++f) {
        acc[static_cast<std::size_t>(f)] +=
            v * a_row[static_cast<std::size_t>(f)];
      }
    }
  }
}

void seed_sddmm(const CsrMatrix& pattern, const DenseMatrix& a,
                const DenseMatrix& b, std::span<Scalar> dots) {
  const auto row_ptr = pattern.row_ptr();
  const auto col_idx = pattern.col_idx();
  const Index r = a.cols();
  for (Index i = 0; i < pattern.rows(); ++i) {
    const auto a_row = a.row(i);
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto b_row = b.row(col_idx[static_cast<std::size_t>(k)]);
      Scalar dot = 0;
      for (Index f = 0; f < r; ++f) {
        dot += a_row[static_cast<std::size_t>(f)] *
               b_row[static_cast<std::size_t>(f)];
      }
      dots[static_cast<std::size_t>(k)] += dot;
    }
  }
}

void seed_fusedmm_a(const CsrMatrix& s, const DenseMatrix& a_in,
                    const DenseMatrix& b, DenseMatrix& a_out) {
  const auto row_ptr = s.row_ptr();
  const auto col_idx = s.col_idx();
  const auto values = s.values();
  const Index r = b.cols();
  for (Index i = 0; i < s.rows(); ++i) {
    const auto a_row = a_in.row(i);
    auto acc = a_out.row(i);
    for (Index k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto b_row = b.row(col_idx[static_cast<std::size_t>(k)]);
      Scalar dot = 0;
      for (Index f = 0; f < r; ++f) {
        dot += a_row[static_cast<std::size_t>(f)] *
               b_row[static_cast<std::size_t>(f)];
      }
      const Scalar weight = values[static_cast<std::size_t>(k)] * dot;
      for (Index f = 0; f < r; ++f) {
        acc[static_cast<std::size_t>(f)] +=
            weight * b_row[static_cast<std::size_t>(f)];
      }
    }
  }
}

// ------------------------------------------------------------------
// Harness.

struct Options {
  Index n = Index{1} << 16;
  Index edges_per_row = 18;
  std::string out = "BENCH_local_kernels.json";
  bool quick = false; // smaller instance, fewer repetitions (CI smoke)
};

struct Instance {
  CsrMatrix s;
  DenseMatrix a;
  DenseMatrix b;
};

Instance make_instance(Index n, Index edges_per_row, Index r) {
  Rng rng(1234);
  Instance inst{coo_to_csr(rmat(n, n, n * edges_per_row, rng)),
                DenseMatrix(n, r), DenseMatrix(n, r)};
  inst.a.fill_random(rng);
  inst.b.fill_random(rng);
  return inst;
}

/// Best-of-k wall time of fn (after one warmup call), where k grows
/// until min_total seconds have been spent or max_iters is reached.
template <typename Fn>
double measure_seconds(const Fn& fn, double min_total, int max_iters) {
  fn(); // warmup
  double best = 1e300;
  double spent = 0;
  for (int i = 0; i < max_iters && (i < 2 || spent < min_total); ++i) {
    Timer t;
    fn();
    const double s = t.seconds();
    best = std::min(best, s);
    spent += s;
  }
  return best;
}

struct Harness {
  bench::JsonRecords records;
  double min_total;
  int max_iters;

  void report(const std::string& kernel, const std::string& impl,
              const Instance& inst, Index r, double seconds,
              std::uint64_t flops) {
    const double gflops = static_cast<double>(flops) / seconds * 1e-9;
    records.add()
        .field("kernel", kernel)
        .field("impl", impl)
        .field("n", static_cast<std::int64_t>(inst.s.rows()))
        .field("nnz", static_cast<std::int64_t>(inst.s.nnz()))
        .field("r", static_cast<std::int64_t>(r))
        .field("seconds", seconds)
        .field("gflops", gflops);
    std::printf("%-10s %-6s r=%-4lld  %8.4fs  %7.2f GFLOP/s\n",
                kernel.c_str(), impl.c_str(), static_cast<long long>(r),
                seconds, gflops);
  }

  template <typename Fn>
  void run(const std::string& kernel, const std::string& impl,
           const Instance& inst, Index r, std::uint64_t flops,
           const Fn& fn) {
    report(kernel, impl, inst, r, measure_seconds(fn, min_total, max_iters),
           flops);
  }
};

void bench_width(Harness& h, const Options& opt, Index r) {
  const Instance inst = make_instance(
      opt.quick ? std::max<Index>(opt.n / 8, 1) : opt.n, opt.edges_per_row,
      r);
  const auto nnz = static_cast<std::uint64_t>(inst.s.nnz());
  const std::uint64_t flops2 = 2 * nnz * static_cast<std::uint64_t>(r);
  const std::uint64_t flops4 = 2 * flops2;
  std::printf("\n-- power-law n=%lld nnz=%llu r=%lld --\n",
              static_cast<long long>(inst.s.rows()),
              static_cast<unsigned long long>(nnz),
              static_cast<long long>(r));

  DenseMatrix a_out(inst.s.rows(), r);
  DenseMatrix b_out(inst.s.cols(), r);
  std::vector<Scalar> dots(static_cast<std::size_t>(inst.s.nnz()));

  h.run("spmm_a", "seed", inst, r, flops2, [&] {
    a_out.fill(0);
    seed_spmm_a(inst.s, inst.b, a_out);
  });
  h.run("spmm_b", "seed", inst, r, flops2, [&] {
    b_out.fill(0);
    seed_spmm_b(inst.s, inst.a, b_out);
  });
  h.run("sddmm", "seed", inst, r, flops2, [&] {
    std::fill(dots.begin(), dots.end(), Scalar{0});
    seed_sddmm(inst.s, inst.a, inst.b, dots);
  });
  h.run("fusedmm_a", "seed", inst, r, flops4, [&] {
    a_out.fill(0);
    seed_fusedmm_a(inst.s, inst.a, inst.b, a_out);
  });

  h.run("spmm_a", "tuned", inst, r, flops2, [&] {
    a_out.fill(0);
    spmm_a(inst.s, inst.b, a_out);
  });
  h.run("spmm_b", "tuned", inst, r, flops2, [&] {
    b_out.fill(0);
    spmm_b(inst.s, inst.a, b_out);
  });
  h.run("sddmm", "tuned", inst, r, flops2, [&] {
    std::fill(dots.begin(), dots.end(), Scalar{0});
    masked_dot_products(inst.s, inst.a, inst.b, dots);
  });
  h.run("fusedmm_a", "tuned", inst, r, flops4, [&] {
    a_out.fill(0);
    fusedmm_a(inst.s, inst.a, inst.b, a_out);
  });
}

/// Strict integer flag value: the whole token must parse and be >= 1, so
/// "abc", "-3" and "16junk" are rejected rather than read as 0, -3 or 16.
bool parse_count(const char* flag, const char* text, Index& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, out);
  if (ec == std::errc() && stop == end && out >= 1) return true;
  std::fprintf(stderr,
               "invalid value '%s' for %s: expected an integer >= 1\n", text,
               flag);
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--n N] [--edges-per-row E] [--out PATH] "
               "[--quick]\n",
               argv0);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      if (!parse_count("--n", next(), opt.n)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--edges-per-row") == 0) {
      if (!parse_count("--edges-per-row", next(), opt.edges_per_row)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opt.out = next();
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else {
      return usage(argv[0]);
    }
  }

  Harness h;
  h.min_total = opt.quick ? 0.05 : 0.5;
  h.max_iters = opt.quick ? 3 : 10;
  for (const Index r : {Index{16}, Index{32}, Index{64}, Index{128}}) {
    bench_width(h, opt, r);
  }
  if (!h.records.write(opt.out)) {
    std::fprintf(stderr, "error: could not write %s\n", opt.out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", opt.out.c_str());
  return 0;
}
