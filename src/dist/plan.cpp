/// \file plan.cpp
/// Plan construction and the fingerprint-checked execute path.

#include "dist/plan.hpp"

#include <array>
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
constexpr std::uint64_t word(Scalar x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Per array, 8 independent hash lanes: word k goes into lane k mod 8,
/// so the multiplies of neighbouring words overlap instead of waiting
/// on each other (one pass feeds the three arrays' lanes side by side).
/// Every lane step and every fold is a mix, so changing any single word
/// changes its lane and then every later fold.
constexpr std::size_t kLanes = 8;
using Lanes = std::array<std::uint64_t, kLanes>;

/// Seed of make_plan's order-keeping block assignments, so two plans of
/// one pattern on one grid place it identically.
constexpr std::uint64_t kBalanceSeed = 0x5EC7'10A1ULL;

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
  Lanes hr, hc, hv;
  hr.fill(kFnvOffset);
  hc.fill(kFnvOffset);
  hv.fill(kFnvOffset);
  const auto step = [&](std::size_t k, std::size_t lane) {
    hr[lane] = mix(hr[lane], word(rows[k]));
    hc[lane] = mix(hc[lane], word(cols[k]));
    hv[lane] = mix(hv[lane], word(vals[k]));
  };
  const std::size_t whole = vals.size() - vals.size() % kLanes;
  for (std::size_t k = 0; k < whole; k += kLanes) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) step(k + lane, lane);
  }
  for (std::size_t k = whole; k < vals.size(); ++k) step(k, k - whole);
  for (const Lanes* lanes : {&hr, &hc, &hv}) {
    for (const std::uint64_t lane : *lanes) h = mix(h, lane);
  }
  return h;
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
  return detail::make_plan(kind, p, c, s, r, options,
                           detail::Balancing::Auto);
}

namespace detail {

BalancedSetup plan_setup(const DistAlgorithm& algo, const CooMatrix& s,
                         Index r, Balancing balancing) {
  const BlockGrid grid = algo.block_grid();
  BalancedSetup out;
  out.block_imbalance = block_imbalance(s, grid);
  out.balanced = balancing == Balancing::On ||
                 (balancing == Balancing::Auto &&
                  out.block_imbalance > kBalanceThreshold);
  BlockMaps maps;
  if (out.balanced) {
    maps = draw_block_maps(s, grid, kBalanceSeed);
    out.block_imbalance = block_imbalance(s, grid, maps);
  }
  out.data = algo.make_plan_data(s, r, maps);
  return out;
}

Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s, Index r,
               const AlgorithmOptions& options, Balancing balancing) {
  Plan plan;
  Timer timer;
  plan.algo_ = make_algorithm(kind, p, c, options);
  check(s.is_sorted_unique(), to_string(kind),
        ": sparse input must be sorted with unique entries "
        "(call sort_and_combine first)");
  validate_dims(kind, p, c, s.rows(), s.cols(), r);
  BalancedSetup setup = plan_setup(*plan.algo_, s, r, balancing);
  plan.data_ = std::move(setup.data);
  plan.balanced_ = setup.balanced;
  plan.block_imbalance_ = setup.block_imbalance;
  plan.build_seconds_ = timer.seconds();
  plan.m_ = s.rows();
  plan.n_ = s.cols();
  plan.r_ = r;
  plan.nnz_ = s.nnz();
  plan.fingerprint_ = plan_fingerprint(s, r);
  return plan;
}

} // namespace detail

} // namespace dsk
