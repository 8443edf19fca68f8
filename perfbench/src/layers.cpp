#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "dense/dense_matrix.hpp"
#include "dist/shards.hpp"
#include "local/fused.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/collectives.hpp"
#include "runtime/wire.hpp"
#include "runtime/world.hpp"
#include "sparse/convert.hpp"
#include "util.hpp"

namespace perfbench {

using dsk::CooMatrix;
using dsk::CsrMatrix;
using dsk::DenseMatrix;
using dsk::Index;
using dsk::Scalar;

namespace {

/// Repeat `once` (which returns its own duration in seconds) at least
/// min_reps times and until budget_s has passed; median in seconds.
double median_of_reps(const std::function<double()>& once, int min_reps,
                      double budget_s) {
  std::vector<double> samples;
  const double start = now_s();
  while (static_cast<int>(samples.size()) < min_reps ||
         (now_s() - start < budget_s && samples.size() < 1000)) {
    samples.push_back(once());
  }
  return median(samples);
}

void add_piece(RankBlocks& b, int rank, const CooMatrix& piece, Index row0) {
  const Index b_blk = b.n / b.p();
  auto& rows = b.row_support[static_cast<std::size_t>(rank)];
  auto& cols = b.col_support[static_cast<std::size_t>(rank)];
  for (const Index i : piece.row_idx()) rows.push_back(row0 + i);
  for (const Index j : piece.col_idx()) cols.push_back(j % b_blk);
  b.pieces[static_cast<std::size_t>(rank)].push_back(dsk::coo_to_csr(piece));
}

void finish_supports(RankBlocks& b) {
  for (auto* table : {&b.row_support, &b.col_support}) {
    for (auto& v : *table) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
  }
}

RankBlocks empty_blocks(const CooMatrix& s, int p, Index width, int steps) {
  RankBlocks b;
  b.m = s.rows();
  b.n = s.cols();
  b.width = width;
  b.steps = steps;
  b.pieces.resize(static_cast<std::size_t>(p));
  b.row_support.resize(static_cast<std::size_t>(p));
  b.col_support.resize(static_cast<std::size_t>(p));
  return b;
}

} // namespace

int RankBlocks::heaviest() const {
  int best = 0;
  Index best_nnz = -1;
  for (int r = 0; r < p(); ++r) {
    Index nnz = 0;
    for (const auto& piece : pieces[static_cast<std::size_t>(r)]) {
      nnz += piece.nnz();
    }
    if (nnz > best_nnz) {
      best_nnz = nnz;
      best = r;
    }
  }
  return best;
}

double RankBlocks::nnz_imbalance() const {
  double worst = 0;
  double sum = 0;
  for (const auto& rank : pieces) {
    double nnz = 0;
    for (const auto& piece : rank) nnz += static_cast<double>(piece.nnz());
    worst = std::max(worst, nnz);
    sum += nnz;
  }
  return sum > 0 ? worst * static_cast<double>(p()) / sum : 1.0;
}

RankBlocks dense_shift_blocks(const CooMatrix& s, int p, int c, Index r) {
  const int layer = p / c;
  RankBlocks b = empty_blocks(s, p, r, 1);
  const Index m_layer = b.m / layer;
  const Index b_blk = b.n / p;
  const Index group = b.n / c;
  for (int v = 0; v < c; ++v) {
    for (int u = 0; u < layer; ++u) {
      for (int j = 0; j < layer; ++j) {
        const Index col0 = v * group + j * b_blk;
        add_piece(b, v * layer + u,
                  s.block(u * m_layer, (u + 1) * m_layer, col0, col0 + b_blk),
                  u * m_layer);
      }
    }
  }
  finish_supports(b);
  return b;
}

RankBlocks sparse_repl_blocks(const CooMatrix& s, int p, int c, Index r) {
  const int q = static_cast<int>(std::lround(std::sqrt(p / c)));
  RankBlocks b = empty_blocks(s, p, r / (static_cast<Index>(q) * c), q);
  const Index mq = b.m / q;
  const Index nq = b.n / q;
  for (int u = 0; u < q; ++u) {
    for (int v = 0; v < q; ++v) {
      const CooMatrix cell =
          s.block(u * mq, (u + 1) * mq, v * nq, (v + 1) * nq);
      for (int w = 0; w < c; ++w) add_piece(b, (w * q + u) * q + v, cell, u * mq);
    }
  }
  finish_supports(b);
  return b;
}

void probe_local(const RankBlocks& blocks, Tracer& tracer, Result& out) {
  const auto& pieces = blocks.pieces[static_cast<std::size_t>(blocks.heaviest())];
  const Index w = blocks.width;
  dsk::Rng rng(0x10CA1);
  struct Operands {
    DenseMatrix a, b, a_out, b_out;
    std::vector<Scalar> dots;
  };
  std::vector<Operands> ops;
  for (const CsrMatrix& piece : pieces) {
    Operands o{DenseMatrix(piece.rows(), w), DenseMatrix(piece.cols(), w),
               DenseMatrix(piece.rows(), w), DenseMatrix(piece.cols(), w),
               std::vector<Scalar>(static_cast<std::size_t>(piece.nnz()))};
    o.a.fill_random(rng);
    o.b.fill_random(rng);
    ops.push_back(std::move(o));
  }

  // One distributed call's worth of a kernel on this rank: every piece,
  // `steps` times, serially (the drivers pass no thread pool).
  using Kernel = std::function<std::uint64_t(const CsrMatrix&, Operands&)>;
  auto probe = [&](const std::string& name, const Kernel& kernel) {
    std::uint64_t flops = 0;
    auto once = [&] {
      Scope span(tracer, "local." + name, "local");
      const double t0 = now_s();
      flops = 0;
      for (int step = 0; step < blocks.steps; ++step) {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
          flops += kernel(pieces[i], ops[i]);
        }
      }
      return now_s() - t0;
    };
    once();  // first touch of the outputs
    const double sec = median_of_reps(once, 5, 0.4);
    out.set("local." + name + "_ms", sec * 1e3, "ms");
    out.set("local." + name + "_gflops",
            static_cast<double>(flops) / sec / 1e9, "GFLOP/s");
  };
  probe("fusedmm_a", [](const CsrMatrix& s, Operands& o) {
    return dsk::fusedmm_a(s, o.a, o.b, o.a_out);
  });
  probe("sddmm", [](const CsrMatrix& s, Operands& o) {
    return dsk::masked_dot_products(s, o.a, o.b, o.dots);
  });
  probe("spmm_a", [](const CsrMatrix& s, Operands& o) {
    return dsk::spmm_a(s, o.b, o.a_out);
  });
  probe("spmm_b", [](const CsrMatrix& s, Operands& o) {
    return dsk::spmm_b(s, o.a, o.b_out);
  });
  out.set("local.block_nnz_imbalance", blocks.nnz_imbalance(), "ratio");
}

void probe_runtime(const RankBlocks& blocks,
                   dsk::ReplicationMode replication,
                   dsk::PropagationMode propagation, Tracer& tracer,
                   Result& out) {
  const int p = blocks.p();
  const Index w = blocks.width;
  const Index a_blk = blocks.m / p;
  const Index b_blk = blocks.n / p;
  dsk::SimWorld world(p);
  std::vector<int> members(static_cast<std::size_t>(p));
  std::iota(members.begin(), members.end(), 0);

  const double world_s = median_of_reps(
      [&] {
        Scope span(tracer, "runtime.SimWorld::run(empty)", "runtime");
        const double t0 = now_s();
        world.run([](dsk::Comm&) {});
        return now_s() - t0;
      },
      50, 0.3);
  out.set("runtime.world_run_us", world_s * 1e6, "us");

  // Per-rank inputs at the workload's block shapes and supports.
  dsk::Rng rng(0xC011);
  std::vector<DenseMatrix> a_local, partial, b_local;
  for (int r = 0; r < p; ++r) {
    a_local.emplace_back(a_blk, w);
    a_local.back().fill_random(rng);
    partial.emplace_back(blocks.m, w);
    for (const Index row : blocks.row_support[static_cast<std::size_t>(r)]) {
      for (auto& x : partial.back().row(row)) x = rng.next_double();
    }
    b_local.emplace_back(b_blk, w);
    b_local.back().fill_random(rng);
  }

  // A collective's time is the slowest rank's, from a barrier to return.
  auto collective_ms = [&](const std::string& name,
                           const std::function<void(dsk::Comm&, dsk::Group&)>&
                               body) {
    std::vector<double> rank_s(static_cast<std::size_t>(p));
    const double sec = median_of_reps(
        [&] {
          Scope span(tracer, "runtime.Group::" + name, "runtime");
          world.run([&](dsk::Comm& comm) {
            dsk::Group group(comm, members);
            comm.barrier();
            const double t0 = now_s();
            body(comm, group);
            rank_s[static_cast<std::size_t>(comm.rank())] = now_s() - t0;
          });
          return *std::max_element(rank_s.begin(), rank_s.end());
        },
        5, 0.4);
    out.set("runtime." + name + "_ms", sec * 1e3, "ms");
  };
  collective_ms("allgatherv_rows", [&](dsk::Comm& comm, dsk::Group& g) {
    g.allgatherv_rows(a_local[static_cast<std::size_t>(comm.rank())],
                      blocks.row_support, replication);
  });
  collective_ms("reduce_scatter_rows", [&](dsk::Comm& comm, dsk::Group& g) {
    g.reduce_scatter_rows(partial[static_cast<std::size_t>(comm.rank())],
                          blocks.row_support, replication);
  });
  collective_ms("sendrecv_cols", [&](dsk::Comm& comm, dsk::Group& g) {
    const int me = comm.rank();
    const int to = (me + 1) % p;
    const int from = (me + p - 1) % p;
    g.sendrecv_cols(to, from, b_local[static_cast<std::size_t>(me)],
                    blocks.col_support[static_cast<std::size_t>(to)],
                    blocks.col_support[static_cast<std::size_t>(me)],
                    propagation);
  });

  // Column-support wire codec on the heaviest rank's support.
  const auto& cols =
      blocks.col_support[static_cast<std::size_t>(blocks.heaviest())];
  if (cols.empty()) {
    throw std::runtime_error("probe_runtime: heaviest rank has no columns");
  }
  const dsk::WireCodec codec{};
  const dsk::MessageWords image = dsk::pack_dense(b_local.front());
  dsk::MessageWords wire = dsk::encode_cols_block(image, b_blk, w, cols, codec);
  const double enc_s = median_of_reps(
      [&] {
        Scope span(tracer, "runtime.encode_cols_block", "runtime");
        const double t0 = now_s();
        wire = dsk::encode_cols_block(image, b_blk, w, cols, codec);
        return now_s() - t0;
      },
      5, 0.2);
  const double dec_s = median_of_reps(
      [&] {
        Scope span(tracer, "runtime.decode_cols_block", "runtime");
        const double t0 = now_s();
        const auto back = dsk::decode_cols_block(wire, b_blk, w, cols, codec);
        const double dt = now_s() - t0;
        if (back.size() != image.size()) {
          throw std::runtime_error("decode_cols_block: size mismatch");
        }
        return dt;
      },
      5, 0.2);
  out.set("runtime.wire_encode_ms", enc_s * 1e3, "ms");
  out.set("runtime.wire_decode_ms", dec_s * 1e3, "ms");
}

} // namespace perfbench
