#pragma once
/// \file layers.hpp
/// Per-layer probes of the traced run. Each probe replays one layer's
/// public functions on the workload's own per-rank blocks, shapes and
/// supports, outside any distributed call:
///  - local:   the four kernels, serially on the heaviest rank's blocks
///             at the width and call count a distributed call uses;
///  - runtime: SimWorld::run with an empty body, the row/column-support
///             Group collectives, and the column-support wire codec.

#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What one distributed call hands each rank's local kernels.
struct RankBlocks {
  dsk::Index m = 0;     ///< padded rows of S
  dsk::Index n = 0;     ///< padded cols of S
  dsk::Index width = 0; ///< dense width of each local kernel call
  int steps = 1;        ///< kernel calls per piece per distributed call
  /// Per rank: the sparse pieces its kernels run on.
  std::vector<std::vector<dsk::CsrMatrix>> pieces;
  /// Per rank: sorted global rows of A its pieces touch.
  std::vector<std::vector<dsk::Index>> row_support;
  /// Per rank: sorted columns its pieces touch, modulo n / p (the row
  /// support of a circulating n / p-row B block).
  std::vector<std::vector<dsk::Index>> col_support;

  int p() const { return static_cast<int>(pieces.size()); }
  int heaviest() const;
  /// Max over ranks of stored nonzeros over their mean.
  double nnz_imbalance() const;
};

/// 1.5D dense shifting on a p = L * c grid: rank (u, v) holds L pieces,
/// the rows of layer-row u against the L B blocks of column group v.
RankBlocks dense_shift_blocks(const dsk::CooMatrix& s, int p, int c,
                              dsk::Index r);

/// 2.5D sparse replicating on a q x q x c grid: rank (u, v, w) holds cell
/// (u, v) and runs q steps at width r / (q c).
RankBlocks sparse_repl_blocks(const dsk::CooMatrix& s, int p, int c,
                              dsk::Index r);

/// local.* metrics: per-call kernel time and GFLOP/s on the heaviest
/// rank, plus local.block_nnz_imbalance.
void probe_local(const RankBlocks& blocks, Tracer& tracer, Result& out);

/// runtime.* metrics other than the per-call word and message maxima.
void probe_runtime(const RankBlocks& blocks,
                   dsk::ReplicationMode replication,
                   dsk::PropagationMode propagation, Tracer& tracer,
                   Result& out);

} // namespace perfbench
