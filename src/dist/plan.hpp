#pragma once
/// \file plan.hpp
/// The one way to run a distributed driver: build an immutable Plan,
/// then execute it.
///
/// `make_plan` runs every data-dependent setup step of a driver once —
/// grid placement, shards, row/col support unions — and freezes the
/// result in a `Plan` that can be executed any number of times (each
/// execute still derives the propagation compression schedules from
/// the frozen supports). An execute's stats report zero setup builds and
/// zero setup seconds: the per-call cost is the kernel alone. Callers
/// that run many kernels on one sparsity pattern (the ALS, GNN and GAT
/// apps; the serving layer in apps/serve_als.hpp) keep a Plan, a
/// resident SimWorld and optionally a ReplicationCache alive across
/// calls.
///
/// Safety: make_plan checks that S is sorted with unique entries and that
/// its dims divide the family's grid. The Plan remembers a fingerprint of
/// the sparse matrix and width it was built from, and every execute
/// re-derives and compares it, so a Plan cannot silently run against a
/// matrix it was not built for (the snapshot embeds S's shards — running
/// it against different values would compute garbage); an execute then
/// checks only the dense shapes. Plans are cheap to copy (shared
/// immutable state) and safe to share between threads once built.

#include <cstdint>
#include <memory>

#include "dist/algorithm.hpp"

namespace dsk {

class SimWorld;
class ReplicationCache;
namespace detail {
class DistAlgorithm;
struct PlanData;
} // namespace detail

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
  Index rows() const { return m_; }
  Index cols() const { return n_; }
  Index width() const { return r_; }
  Index nnz() const { return nnz_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Wall time make_plan spent building the snapshot — the cost each
  /// execute call amortizes away (see model/cost_model.hpp's
  /// amortized_setup_share).
  double build_seconds() const { return build_seconds_; }

  /// Run one unified kernel against the frozen snapshot and gather the
  /// global result. s (and the width) must be the ones the Plan was built
  /// from; a is sized s.rows() x r and b s.cols() x r. SpMMA reads only
  /// b, SpMMB only a, SDDMM both. Throws when the family cannot run
  /// `mode` (see unsupported_reason).
  KernelResult execute(Mode mode, const CooMatrix& s, const DenseMatrix& a,
                       const DenseMatrix& b,
                       const ExecuteOptions& exec = {}) const;

  /// Run FusedMM (SDDMM feeding SpMM) `repetitions` times with the given
  /// eliding strategy against the frozen snapshot (inputs as in
  /// execute); communication scales exactly linearly in repetitions and
  /// the output is that of a single call.
  FusedResult execute_fusedmm(FusedOrientation orientation, Elision elision,
                              const CooMatrix& s, const DenseMatrix& a,
                              const DenseMatrix& b, int repetitions = 1,
                              const ExecuteOptions& exec = {}) const;

 private:
  friend Plan make_plan(AlgorithmKind kind, int p, int c, const CooMatrix& s,
                        Index r, const AlgorithmOptions& options);

  Plan() = default;

  void check_fingerprint(const CooMatrix& s, Index r) const;

  std::shared_ptr<const detail::DistAlgorithm> algo_;
  std::shared_ptr<const detail::PlanData> data_;
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
