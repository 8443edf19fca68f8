#pragma once
/// \file generate.hpp
/// Seeded sparse matrix generators. Erdős–Rényi matrices drive the paper's
/// weak scaling experiments (Section VI-B); R-MAT power-law matrices stand
/// in for the SuiteSparse strong-scaling inputs (Table V) which are not
/// available offline — they preserve the nnz-per-row and skew properties
/// that select the winning algorithm.

#include "common/rng.hpp"
#include "sparse/coo.hpp"

namespace dsk {

/// Erdős–Rényi matrix with exactly nnz_per_row nonzeros in every row
/// (sampling without replacement; columns uniform). This matches the
/// paper's generator: "sparse matrix dimensions 65536 x 65536 ... with 32
/// nonzeros per row". Values are uniform in [-1, 1).
CooMatrix erdos_renyi_fixed_row(Index rows, Index cols, Index nnz_per_row,
                                Rng& rng);

/// R-MAT parameters. Defaults are the Graph500 constants, which give the
/// heavy-tailed degree distribution of web/social graphs (uk-2002,
/// twitter7, ...).
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  // d = 1 - a - b - c
  bool remove_self_loops = false;
};

/// R-MAT matrix over a rows x cols grid (dimensions need not be powers of
/// two; samples falling outside are re-drawn). Duplicate edges are
/// combined, so the realized nnz is slightly below edges_target for dense
/// targets.
CooMatrix rmat(Index rows, Index cols, Index edges_target, Rng& rng,
               const RmatParams& params = {});

/// phi = nnz(S) / (n * r): the paper's density ratio governing algorithm
/// selection (Table I).
double phi_ratio(const CooMatrix& s, Index r);

} // namespace dsk
