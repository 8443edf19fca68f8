#include "apps/gnn.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "dense/dense_ops.hpp"
#include "dist/plan.hpp"
#include "runtime/world.hpp"

namespace dsk {

namespace {

std::vector<DenseMatrix> make_weights(const GnnConfig& config) {
  Rng rng(config.seed);
  std::vector<DenseMatrix> weights;
  for (std::size_t l = 0; l + 1 < config.layer_widths.size(); ++l) {
    DenseMatrix w(config.layer_widths[l], config.layer_widths[l + 1]);
    w.fill_gaussian(rng, 1.0 / std::sqrt(static_cast<double>(
                             config.layer_widths[l])));
    weights.push_back(std::move(w));
  }
  return weights;
}

void relu_inplace(DenseMatrix& m) {
  for (auto& x : m.data()) {
    if (x < 0) x = 0;
  }
}

void validate(const CooMatrix& adjacency, const DenseMatrix& features,
              const GnnConfig& config) {
  check(adjacency.rows() == adjacency.cols(),
        "gnn_forward: adjacency must be square");
  check(features.rows() == adjacency.rows(),
        "gnn_forward: feature rows must match node count");
  check(config.layer_widths.size() >= 2,
        "gnn_forward: need at least one layer (two widths)");
  check(features.cols() == config.layer_widths.front(),
        "gnn_forward: feature width ", features.cols(),
        " != layer_widths.front() = ", config.layer_widths.front());
}

} // namespace

CooMatrix row_normalized(const CooMatrix& adjacency) {
  std::vector<Scalar> degree(static_cast<std::size_t>(adjacency.rows()),
                             Scalar{0});
  for (Index k = 0; k < adjacency.nnz(); ++k) {
    degree[static_cast<std::size_t>(adjacency.entry(k).row)] += 1.0;
  }
  CooMatrix out(adjacency.rows(), adjacency.cols());
  out.reserve(adjacency.nnz());
  for (Index k = 0; k < adjacency.nnz(); ++k) {
    const auto e = adjacency.entry(k);
    out.push_back(e.row, e.col,
                  1.0 / degree[static_cast<std::size_t>(e.row)]);
  }
  return out;
}

GnnResult gnn_forward(const CooMatrix& adjacency,
                      const DenseMatrix& features, const GnnConfig& config) {
  validate(adjacency, features, config);

  const CooMatrix s = config.normalize_adjacency
                          ? row_normalized(adjacency)
                          : adjacency;
  const auto weights = make_weights(config);

  GnnResult result;
  SimWorld world(config.p);
  const ExecuteOptions exec{.world = &world};
  DenseMatrix h = features;
  for (std::size_t l = 0; l < weights.size(); ++l) {
    const Index width_out = config.layer_widths[l + 1];
    // One plan per layer: the width is part of the setup.
    const Plan plan = make_plan(config.kind, config.p, config.c, s, width_out);

    // Local feature transform H W (each rank transforms its rows).
    DenseMatrix hw(h.rows(), width_out);
    gemm(h, weights[l], hw);
    result.costs.add_app_flops(
        static_cast<std::uint64_t>(2 * h.rows() * h.cols() * width_out),
        config.p, config.machine);

    // Distributed aggregation S . (H W).
    auto aggregated = plan.execute(Mode::SpMMA, s, hw, hw, exec);
    result.costs.add_kernel(aggregated.stats, config.machine);
    result.costs.add_app_comm(
        redistribution_words(config.kind, static_cast<double>(s.rows()),
                             static_cast<double>(width_out), config.p),
        config.machine);

    h = std::move(aggregated.dense);
    if (config.relu && l + 1 < weights.size()) {
      relu_inplace(h);
      result.costs.add_app_flops(static_cast<std::uint64_t>(h.size()),
                                 config.p, config.machine);
    }
  }
  result.output = std::move(h);
  return result;
}

DenseMatrix gnn_forward_reference(const CooMatrix& adjacency,
                                  const DenseMatrix& features,
                                  const GnnConfig& config) {
  validate(adjacency, features, config);
  const CooMatrix s = config.normalize_adjacency
                          ? row_normalized(adjacency)
                          : adjacency;
  const auto weights = make_weights(config);

  DenseMatrix h = features;
  for (std::size_t l = 0; l < weights.size(); ++l) {
    DenseMatrix hw(h.rows(), config.layer_widths[l + 1]);
    gemm(h, weights[l], hw);
    DenseMatrix next(s.rows(), hw.cols());
    for (Index k = 0; k < s.nnz(); ++k) {
      const auto e = s.entry(k);
      for (Index f = 0; f < hw.cols(); ++f) {
        next(e.row, f) += e.value * hw(e.col, f);
      }
    }
    h = std::move(next);
    if (config.relu && l + 1 < weights.size()) {
      relu_inplace(h);
    }
  }
  return h;
}

} // namespace dsk
