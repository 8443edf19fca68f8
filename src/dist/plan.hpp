#pragma once
/// \file plan.hpp
/// The immutable Plan / execute split over the distributed drivers.
///
/// `make_plan` runs every data-dependent setup step of a driver once —
/// grid placement, shards, row/col support unions — and freezes the
/// result in a `Plan` that can be executed any number of times (each
/// execute still derives the propagation compression schedules from
/// the frozen supports). `Plan::execute` is bit-identical to the classic
/// `DistAlgorithm::run_kernel` call for the same inputs, but its stats
/// report zero setup builds and zero setup seconds: the per-request cost
/// is the kernel alone. A serving layer keeps one Plan (plus a resident
/// SimWorld and an optional ReplicationCache) alive across requests; see
/// apps/serve_als.hpp for the first tenant.
///
/// Safety: the Plan remembers a fingerprint of the sparse matrix and
/// width it was built from, and every execute re-derives and compares
/// it, so a Plan cannot silently run against a matrix it was not built
/// for (the snapshot embeds S's shards — running it against different
/// values would compute garbage). Plans are cheap to copy (shared
/// immutable state) and safe to share between threads once built.

#include <cstdint>
#include <memory>

#include "dist/algorithm.hpp"

namespace dsk {

/// Per-request execution environment. `world` is an optional resident
/// SimWorld reused across requests (must have exactly the driver's p
/// ranks); `cache` is an optional cross-call replicated-factor cache
/// (see dist/replication_cache.hpp). Both borrowed, both optional —
/// defaults execute on a one-shot world with no cache. The wire codec is
/// the plan options' (AlgorithmOptions::codec).
struct ExecuteOptions {
  SimWorld* world = nullptr;
  ReplicationCache* cache = nullptr;
};

/// Fingerprint of (s, r): dims, nnz, the requested width, and every
/// entry's row index, column index and value bits (so +0.0 and -0.0
/// differ), hashed a 64-bit word at a time. Changing any single word
/// always changes it. The Plan stores it at build time and every execute
/// recomputes and checks it.
std::uint64_t plan_fingerprint(const CooMatrix& s, Index r);

class Plan {
 public:
  AlgorithmKind kind() const { return algo_->kind(); }
  int p() const { return algo_->p(); }
  int c() const { return algo_->c(); }
  const AlgorithmOptions& options() const { return algo_->options(); }
  const DistAlgorithm& algorithm() const { return *algo_; }

  Index rows() const { return m_; }
  Index cols() const { return n_; }
  Index width() const { return r_; }
  Index nnz() const { return nnz_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Wall time make_plan spent building the snapshot — the cost each
  /// execute call amortizes away (see model/cost_model.hpp's
  /// amortized_setup_share).
  double build_seconds() const { return build_seconds_; }

  /// Run one unified kernel against the frozen snapshot. Inputs must be
  /// the same s (and width) the Plan was built from; a, b as in
  /// DistAlgorithm::run_kernel. Bit-identical to a fresh call; stats
  /// report zero setup builds.
  KernelResult execute(Mode mode, const CooMatrix& s, const DenseMatrix& a,
                       const DenseMatrix& b,
                       const ExecuteOptions& exec = {}) const;

  /// FusedMM against the frozen snapshot (see execute).
  FusedResult execute_fusedmm(FusedOrientation orientation, Elision elision,
                              const CooMatrix& s, const DenseMatrix& a,
                              const DenseMatrix& b, int repetitions = 1,
                              const ExecuteOptions& exec = {}) const;

 private:
  friend Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s,
                        Index r, const AlgorithmOptions& options);

  Plan() = default;

  ExecContext context(const CooMatrix& s, Index r,
                      const ExecuteOptions& exec) const;

  std::shared_ptr<const DistAlgorithm> algo_;
  std::shared_ptr<const PlanData> data_;
  Index m_ = 0, n_ = 0, r_ = 0, nnz_ = 0;
  std::uint64_t fingerprint_ = 0;
  double build_seconds_ = 0.0;
};

/// Build a Plan: construct the driver for (kind, p, c, options), snapshot
/// its setup for (s, r), and fingerprint the inputs. Throws on invalid
/// (p, c), on dims that do not divide the family's grid (call
/// pad_problem first), and on unsorted/duplicate entries in s.
Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s, Index r,
               const AlgorithmOptions& options = {});

} // namespace dsk
