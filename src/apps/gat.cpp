#include "apps/gat.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "dense/dense_ops.hpp"
#include "local/gat_kernels.hpp"
#include "sparse/convert.hpp"

namespace dsk {

namespace {

struct HeadWeights {
  DenseMatrix w;              ///< in_features x out_features
  std::vector<Scalar> a_left; ///< out_features
  std::vector<Scalar> a_right;
};

std::vector<HeadWeights> make_weights(Index in_features, Index out_features,
                                      int heads, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<HeadWeights> weights;
  weights.reserve(static_cast<std::size_t>(heads));
  for (int h = 0; h < heads; ++h) {
    HeadWeights hw{DenseMatrix(in_features, out_features),
                   std::vector<Scalar>(static_cast<std::size_t>(
                       out_features)),
                   std::vector<Scalar>(static_cast<std::size_t>(
                       out_features))};
    hw.w.fill_gaussian(rng, 1.0 / std::sqrt(static_cast<double>(
                                in_features)));
    for (auto& x : hw.a_left) x = rng.next_gaussian();
    for (auto& x : hw.a_right) x = rng.next_gaussian();
    weights.push_back(std::move(hw));
  }
  return weights;
}

/// Per-node attention scalars u = (HW) a_left, v = (HW) a_right.
std::pair<std::vector<Scalar>, std::vector<Scalar>> node_scalars(
    const DenseMatrix& hw, const HeadWeights& weights) {
  std::vector<Scalar> u(static_cast<std::size_t>(hw.rows()));
  std::vector<Scalar> v(static_cast<std::size_t>(hw.rows()));
  for (Index i = 0; i < hw.rows(); ++i) {
    Scalar su = 0, sv = 0;
    const auto row = hw.row(i);
    for (Index f = 0; f < hw.cols(); ++f) {
      su += row[static_cast<std::size_t>(f)] *
            weights.a_left[static_cast<std::size_t>(f)];
      sv += row[static_cast<std::size_t>(f)] *
            weights.a_right[static_cast<std::size_t>(f)];
    }
    u[static_cast<std::size_t>(i)] = su;
    v[static_cast<std::size_t>(i)] = sv;
  }
  return {std::move(u), std::move(v)};
}

/// Rank-2 embeddings padded to the layer width: SDDMM(mask, [u|1|0..],
/// [1|v|0..]) produces exactly u_i + v_j per edge while communicating
/// full-width rows (the paper's attention op has SDDMM's pattern).
std::pair<DenseMatrix, DenseMatrix> logit_embeddings(
    std::span<const Scalar> u, std::span<const Scalar> v, Index width) {
  check(width >= 2, "gat: layer width must be at least 2");
  DenseMatrix ua(static_cast<Index>(u.size()), width);
  DenseMatrix vb(static_cast<Index>(v.size()), width);
  for (std::size_t i = 0; i < u.size(); ++i) {
    ua(static_cast<Index>(i), 0) = u[i];
    ua(static_cast<Index>(i), 1) = 1.0;
  }
  for (std::size_t j = 0; j < v.size(); ++j) {
    vb(static_cast<Index>(j), 0) = 1.0;
    vb(static_cast<Index>(j), 1) = v[j];
  }
  return {std::move(ua), std::move(vb)};
}

/// Attention weights for one head as a COO with the adjacency pattern.
CooMatrix attention_matrix(const CooMatrix& adjacency,
                           std::span<const Scalar> logits,
                           const GatConfig& config) {
  CooMatrix attn = adjacency;
  auto values = attn.values();
  for (std::size_t k = 0; k < values.size(); ++k) {
    values[k] = logits[k];
  }
  leaky_relu(values, config.negative_slope);
  if (config.softmax) {
    CsrMatrix csr = coo_to_csr(attn); // sorted input: same entry order
    row_softmax(csr);
    const auto soft = csr.values();
    for (std::size_t k = 0; k < values.size(); ++k) {
      values[k] = soft[k];
    }
  }
  return attn;
}

} // namespace

GatResult gat_forward(const CooMatrix& adjacency,
                      const DenseMatrix& features, const GatConfig& config) {
  check(adjacency.rows() == adjacency.cols(),
        "gat_forward: adjacency must be square");
  check(features.rows() == adjacency.rows(),
        "gat_forward: feature rows must match node count");
  check(!(config.softmax && config.elision == Elision::LocalKernelFusion),
        "gat_forward: local kernel fusion is incompatible with softmax "
        "edge regularization (paper Section VI-E)");
  auto algo = make_algorithm(config.kind, config.p, config.c);
  check(algo->supports(config.elision), "gat_forward: ",
        to_string(config.kind), " does not support ",
        to_string(config.elision));
  algo->validate_dims(adjacency.rows(), adjacency.cols(),
                      config.out_features);

  const Index n = adjacency.rows();
  GatResult result{
      DenseMatrix(n, static_cast<Index>(config.heads) * config.out_features),
      {}};

  // An indicator copy drives the SDDMM (values multiply the dots, so use
  // ones and keep the raw logits).
  CooMatrix mask = adjacency;
  for (auto& v : mask.values()) v = 1.0;

  const auto weights = make_weights(features.cols(), config.out_features,
                                    config.heads, config.seed);

  for (int h = 0; h < config.heads; ++h) {
    // Local transform HW: each rank transforms its feature rows; flops
    // charged, no communication.
    DenseMatrix hw(n, config.out_features);
    gemm(features, weights[static_cast<std::size_t>(h)].w, hw);
    result.costs.add_app_flops(
        static_cast<std::uint64_t>(2 * n * features.cols() *
                                   config.out_features),
        config.p, config.machine);

    auto [u, v] = node_scalars(hw, weights[static_cast<std::size_t>(h)]);
    result.costs.add_app_flops(
        static_cast<std::uint64_t>(4 * n * config.out_features), config.p,
        config.machine);

    // Distributed SDDMM producing the attention logits.
    auto [ua, vb] = logit_embeddings(u, v, config.out_features);
    const auto logits = algo->run_kernel(Mode::SDDMM, mask, ua, vb);
    result.costs.add_kernel(logits.stats, config.machine);

    // LeakyReLU + softmax: row statistics need one combine across the
    // ranks sharing a row of S (two batched reductions: max and sum).
    const CooMatrix attn =
        attention_matrix(adjacency, logits.sddmm_values, config);
    result.costs.add_app_flops(
        static_cast<std::uint64_t>(3 * adjacency.nnz()), config.p,
        config.machine);
    if (config.softmax) {
      result.costs.add_app_comm(
          2 * rowdot_reduction_words(config.kind, config.p, config.c,
                                     static_cast<double>(n)),
          config.machine);
    }

    // Distributed aggregation H' = S' . (HW).
    const auto aggregated = algo->run_kernel(Mode::SpMMA, attn, hw, hw);
    result.costs.add_kernel(aggregated.stats, config.machine);
    result.costs.add_app_comm(
        redistribution_words(config.kind, static_cast<double>(n),
                             static_cast<double>(config.out_features),
                             config.p),
        config.machine);

    // Concatenate into the multi-head output (local).
    result.output.place(aggregated.dense, 0,
                        static_cast<Index>(h) * config.out_features);
  }
  return result;
}

DenseMatrix gat_forward_reference(const CooMatrix& adjacency,
                                  const DenseMatrix& features,
                                  const GatConfig& config) {
  const Index n = adjacency.rows();
  const auto weights = make_weights(features.cols(), config.out_features,
                                    config.heads, config.seed);
  DenseMatrix out(n, static_cast<Index>(config.heads) * config.out_features);
  for (int h = 0; h < config.heads; ++h) {
    DenseMatrix hw(n, config.out_features);
    gemm(features, weights[static_cast<std::size_t>(h)].w, hw);
    auto [u, v] = node_scalars(hw, weights[static_cast<std::size_t>(h)]);

    std::vector<Scalar> logits(static_cast<std::size_t>(adjacency.nnz()));
    for (Index k = 0; k < adjacency.nnz(); ++k) {
      const auto e = adjacency.entry(k);
      logits[static_cast<std::size_t>(k)] =
          u[static_cast<std::size_t>(e.row)] +
          v[static_cast<std::size_t>(e.col)];
    }
    const CooMatrix attn = attention_matrix(adjacency, logits, config);

    // Dense aggregation.
    for (Index k = 0; k < attn.nnz(); ++k) {
      const auto e = attn.entry(k);
      for (Index f = 0; f < config.out_features; ++f) {
        out(e.row, static_cast<Index>(h) * config.out_features + f) +=
            e.value * hw(e.col, f);
      }
    }
  }
  return out;
}

} // namespace dsk
