#include "apps/als.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "dense/dense_ops.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "local/reference.hpp"
#include "runtime/world.hpp"

namespace dsk {

namespace {

/// Indicator mask of the observation pattern (values = 1).
CooMatrix indicator(const CooMatrix& observed) {
  CooMatrix mask = observed;
  for (auto& v : mask.values()) {
    v = 1.0;
  }
  return mask;
}

/// One batched-CG half-sweep updating `x` (the factor with x.rows()
/// rows) for fixed `other`, solving (M_i + lambda I) x_i = rhs_i for all
/// rows at once. `orientation` selects FusedMMA (A update) or FusedMMB
/// (B update); `s`/`mask` are the observations and their indicator in
/// the orientation's layout (the caller passes S for A-updates, the same
/// S for B-updates — the kernels handle the transposition internally).
/// Every kernel runs on the resident `world`.
void cg_half_sweep(const AlsConfig& config, const CooMatrix& observed,
                   const CooMatrix& mask, FusedOrientation orientation,
                   const DenseMatrix& other, DenseMatrix& x,
                   SimWorld& world, AppCosts& costs) {
  const Index rows = x.rows();
  const Index r = x.cols();
  const auto m = static_cast<double>(rows);
  const ExecuteOptions exec{.world = &world};

  // Per-iteration application-side charges (documented in app_stats.hpp):
  // two batched dot reductions and the axpy flops; plus one output
  // redistribution per FusedMM for displaced output layouts.
  const double dot_words =
      rowdot_reduction_words(config.kind, config.p, config.c, m);
  const double redist_words = redistribution_words(
      config.kind, m, static_cast<double>(r), config.p);

  // x is the A operand of an A update and the B operand of a B update.
  const bool a_side = orientation == FusedOrientation::A;

  // rhs = SpMM(observed) in the matching orientation, on a temporary
  // plan that is gone before the mask's is built: one setup is alive at
  // a time.
  KernelResult rhs_result =
      make_plan(config.kind, config.p, config.c, observed, r)
          .execute(a_side ? Mode::SpMMA : Mode::SpMMB, observed,
                   a_side ? x : other, a_side ? other : x, exec);
  costs.add_kernel(rhs_result.stats, config.machine);
  DenseMatrix rhs = std::move(rhs_result.dense);

  const Plan plan = make_plan(config.kind, config.p, config.c, mask, r);
  auto matvec = [&](const DenseMatrix& v) {
    FusedResult fused =
        plan.execute_fusedmm(orientation, config.elision, mask,
                             a_side ? v : other, a_side ? other : v, 1, exec);
    costs.add_kernel(fused.stats, config.machine);
    costs.add_app_comm(redist_words, config.machine);
    axpy(config.lambda, v, fused.output);
    costs.add_app_flops(
        static_cast<std::uint64_t>(2 * rows * r), config.p, config.machine);
    return std::move(fused.output);
  };

  // Batched CG: every row runs its own CG with shared kernel calls.
  DenseMatrix residual = rhs;
  axpy(-1.0, matvec(x), residual);
  DenseMatrix direction = residual;
  auto rr = batched_row_dot(residual, residual);
  costs.add_app_comm(dot_words, config.machine);

  for (int iter = 0; iter < config.cg_iterations; ++iter) {
    DenseMatrix q = matvec(direction);
    const auto dq = batched_row_dot(direction, q);
    costs.add_app_comm(dot_words, config.machine);
    std::vector<Scalar> alpha(static_cast<std::size_t>(rows));
    for (Index i = 0; i < rows; ++i) {
      const auto k = static_cast<std::size_t>(i);
      alpha[k] = dq[k] > 1e-300 ? rr[k] / dq[k] : 0.0;
    }
    axpy_rows(alpha, direction, x);
    for (auto& a : alpha) a = -a;
    axpy_rows(alpha, q, residual);
    const auto rr_next = batched_row_dot(residual, residual);
    costs.add_app_comm(dot_words, config.machine);
    std::vector<Scalar> beta(static_cast<std::size_t>(rows));
    for (Index i = 0; i < rows; ++i) {
      const auto k = static_cast<std::size_t>(i);
      beta[k] = rr[k] > 1e-300 ? rr_next[k] / rr[k] : 0.0;
    }
    // direction = residual + beta .* direction
    scale_rows(direction, beta);
    axpy(1.0, residual, direction);
    rr = rr_next;
    // dots + three row axpys + direction update: ~10 m r flops.
    costs.add_app_flops(static_cast<std::uint64_t>(10 * rows * r), config.p,
                        config.machine);
  }
}

} // namespace

Scalar als_loss(const CooMatrix& observed, const DenseMatrix& a,
                const DenseMatrix& b, Scalar lambda) {
  Scalar loss = 0;
  for (Index k = 0; k < observed.nnz(); ++k) {
    const auto e = observed.entry(k);
    Scalar dot = 0;
    for (Index f = 0; f < a.cols(); ++f) {
      dot += a(e.row, f) * b(e.col, f);
    }
    const Scalar err = e.value - dot;
    loss += err * err;
  }
  const Scalar na = a.frobenius_norm();
  const Scalar nb = b.frobenius_norm();
  return loss + lambda * (na * na + nb * nb);
}

AlsResult run_als(const CooMatrix& observed, const AlsConfig& config) {
  check(observed.nnz() > 0, "run_als: no observations");
  check(config.rank >= 1 && config.cg_iterations >= 1 && config.sweeps >= 1,
        "run_als: invalid configuration");
  check(supports(config.kind, config.elision), "run_als: ",
        to_string(config.kind), " does not support ",
        to_string(config.elision));
  validate_dims(config.kind, config.p, config.c, observed.rows(),
                observed.cols(), config.rank);

  const CooMatrix mask = indicator(observed);

  Rng rng(config.seed);
  AlsResult result{DenseMatrix(observed.rows(), config.rank),
                   DenseMatrix(observed.cols(), config.rank),
                   {},
                   {}};
  // Small random init keeps the first residuals well-scaled.
  result.a.fill_gaussian(rng, 0.1);
  result.b.fill_gaussian(rng, 0.1);
  result.loss_history.push_back(
      als_loss(observed, result.a, result.b, config.lambda));

  SimWorld world(config.p);
  for (int sweep = 0; sweep < config.sweeps; ++sweep) {
    cg_half_sweep(config, observed, mask, FusedOrientation::A, result.b,
                  result.a, world, result.costs);
    cg_half_sweep(config, observed, mask, FusedOrientation::B, result.a,
                  result.b, world, result.costs);
    result.loss_history.push_back(
        als_loss(observed, result.a, result.b, config.lambda));
    // Loss evaluation: one SDDMM-equivalent pass.
    result.costs.add_app_flops(
        static_cast<std::uint64_t>(2 * observed.nnz() * config.rank),
        config.p, config.machine);
  }
  return result;
}

} // namespace dsk
