/// \file plan.cpp
/// Plan construction and the fingerprint-checked execute path.

#include "dist/plan.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "dist/families.hpp"
#include "dist/problem.hpp"

namespace dsk {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One fingerprint step over a 64-bit word. For a fixed h it is a
/// bijection of w, and for a fixed w a bijection of h, so changing any
/// single word always changes every later hash. The rotate is what lets
/// a high bit reach later steps: the multiply only carries upward, so
/// without it a flipped bit 63 (a negated double) stays bit 63 for the
/// rest of the chain and two such flips cancel.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return std::rotl((h ^ w) * kFnvPrime, 29);
}

constexpr std::uint64_t word(Index i) { return static_cast<std::uint64_t>(i); }

} // namespace

std::uint64_t plan_fingerprint(const CooMatrix& s, Index r) {
  std::uint64_t h = kFnvOffset;
  h = mix(h, word(s.rows()));
  h = mix(h, word(s.cols()));
  h = mix(h, word(s.nnz()));
  h = mix(h, word(r));
  const auto rows = s.row_idx();
  const auto cols = s.col_idx();
  const auto vals = s.values();
  // Three independent chains, so the multiplies of one entry overlap
  // instead of waiting on each other.
  std::uint64_t hr = kFnvOffset, hc = kFnvOffset, hv = kFnvOffset;
  for (std::size_t k = 0; k < vals.size(); ++k) {
    hr = mix(hr, word(rows[k]));
    hc = mix(hc, word(cols[k]));
    hv = mix(hv, std::bit_cast<std::uint64_t>(vals[k]));
  }
  h = mix(h, hr);
  h = mix(h, hc);
  return mix(h, hv);
}

void Plan::check_fingerprint(const CooMatrix& s, Index r) const {
  check(plan_fingerprint(s, r) == fingerprint_,
        "Plan: executed against a different (matrix, width) than it was "
        "built for — the frozen shards would not match; rebuild with "
        "make_plan");
}

KernelResult Plan::execute(Mode mode, const CooMatrix& s,
                           const DenseMatrix& a, const DenseMatrix& b,
                           const ExecuteOptions& exec) const {
  check_fingerprint(s, a.cols());
  return algo_->run_kernel({data_.get(), exec.world, exec.cache}, mode, s,
                           a, b);
}

FusedResult Plan::execute_fusedmm(FusedOrientation orientation,
                                  Elision elision, const CooMatrix& s,
                                  const DenseMatrix& a, const DenseMatrix& b,
                                  int repetitions,
                                  const ExecuteOptions& exec) const {
  check_fingerprint(s, a.cols());
  return algo_->run_fusedmm({data_.get(), exec.world, exec.cache},
                            orientation, elision, s, a, b, repetitions);
}

Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s, Index r,
               const AlgorithmOptions& options) {
  Plan plan;
  Timer timer;
  plan.algo_ = detail::make_algorithm(kind, p, c, options);
  check(s.is_sorted_unique(), to_string(kind),
        ": sparse input must be sorted with unique entries "
        "(call sort_and_combine first)");
  validate_dims(kind, p, c, s.rows(), s.cols(), r);
  plan.data_ = plan.algo_->make_plan_data(s, r);
  plan.build_seconds_ = timer.seconds();
  plan.m_ = s.rows();
  plan.n_ = s.cols();
  plan.r_ = r;
  plan.nnz_ = s.nnz();
  plan.fingerprint_ = plan_fingerprint(s, r);
  return plan;
}

} // namespace dsk
