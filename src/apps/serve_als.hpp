#pragma once
/// \file serve_als.hpp
/// The serving layer's first tenant: an ALS recommender that trains once
/// (apps/als.hpp), then answers scoring requests from resident state —
/// an immutable Plan per request width (dist/plan.hpp), one resident
/// SimWorld reused by every request, and a cross-call ReplicationCache
/// for the stationary factor.
///
/// Scoring: a pass for users u_1..u_b fills the similarity block
///   sim(i, j) = <a_i, a_{u_j}>                   (local, factor-space)
/// in place (fill_similarity_block, apps/serving.hpp), runs one SpMMB
///   scores = S^T · sim
/// to rank every item by similarity-weighted popularity, and picks each
/// request's top k unrated items in one item-order sweep (top_k_unrated).
/// Both host halves run on the resident world's p ranks, one world run
/// each: before the SpMMB, rank q fills the q-th contiguous share of the
/// block's rows; after it, rank q picks top k for the q-th contiguous
/// share of the pass's requests. Each rank writes only its own rows or
/// answer slots, with the kernel and sweep a serial pass uses, so the
/// answers do not depend on p. Column j of a batched pass is
/// bit-identical to serving request j alone, so batching is a pure
/// traffic optimization. SpMMB reads only the block, so each width's
/// plan keeps one zero item-side input for every pass. The similarity
/// block is never cacheable (it changes every call); the cache serves
/// observed_rmse, whose SDDMM replicates the stationary factor A — after
/// the first call its replication traffic drops to zero until the server
/// degrades.
///
/// Failure story (PR-6/7 carried through the Plan): faults armed in
/// AlsServerConfig::exec apply to serving requests. Recoverable crashes
/// heal inside the run; an unrecoverable crash with exec.degrade set
/// makes that request degrade one-shot internally, after which the
/// server re-plans once onto the shrunken grid (shrink_config), rebuilds
/// its resident world and cache fault-free, and keeps serving.
///
/// Load balance is the Plan's job (dist/plan.hpp): a skewed ratings
/// pattern plans its user and item blocks by an order-keeping
/// assignment, the same one for every pass width, so the server keeps
/// the caller's row order throughout. Every pass records
/// WorldStats::load_imbalance in the report.

#include <map>
#include <memory>
#include <optional>
#include <span>

#include "apps/als.hpp"
#include "apps/serving.hpp"
#include "dist/plan.hpp"
#include "dist/replication_cache.hpp"
#include "runtime/world.hpp"

namespace dsk {

struct AlsServerConfig {
  AlsConfig train;                  ///< trained fault-free at startup
  /// Serving-time execution knobs (schedule / replication / propagation
  /// / faults / wire codec); faults are cleared automatically after a
  /// degrade. Every Plan the server builds carries the wire codec; bf16
  /// precision is rejected by requests demanding exact top-k ties (see
  /// top_k).
  AlgorithmOptions exec;
  Index batch_width = 128;          ///< max requests per kernel pass
};

/// Counters the server accumulates across requests (tests and the CLI
/// read these; setup_builds staying 0 is the resident-plan guarantee).
struct ServeReport {
  int requests = 0;      ///< scoring requests answered
  int batches = 0;       ///< batched kernel passes run
  int rmse_calls = 0;
  int setup_builds = 0;  ///< per-request setup builds (resident plan: 0)
  int plan_builds = 0;   ///< Plans built (lazy widths + rebuilds)
  int replans = 0;       ///< resident rebuilds (after a degrade)
  bool degraded = false;
  int degraded_rank = -1;
  int degraded_from = 0;
  int degraded_to = 0;
  double last_imbalance = 1.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Wall seconds summed over every scoring pass, stage by stage: the
  /// similarity fill, the SpMMB execute and the top-k pick.
  double fill_seconds = 0;
  double execute_seconds = 0;
  double top_k_seconds = 0;
};

class AlsServer {
 public:
  /// Train the factorization and build the resident serving state.
  /// `ratings` is the users x items observation matrix (sorted unique).
  AlsServer(const CooMatrix& ratings, const AlsServerConfig& config);
  ~AlsServer();

  int p() const { return p_; }
  int c() const { return c_; }
  Index users() const { return ratings_.rows(); }
  Index items() const { return ratings_.cols(); }
  const std::vector<Scalar>& loss_history() const { return loss_history_; }
  const ServeReport& report() const { return report_; }

  /// Top-k unrated items for each requested user, served in batched
  /// kernel passes of up to batch_width requests (every id is checked
  /// before the first pass runs), on plans built with the configured
  /// wire codec (AlsServerConfig::exec). `exact_ties`
  /// declares the request demands exact top-k tie resolution: bf16 wire
  /// precision is rejected, because its quantized scores can merge
  /// distinct full-precision scores into fabricated ties (full and f32
  /// keep score ordering reproducible).
  std::vector<std::vector<Recommendation>> top_k(
      std::span<const Index> user_ids, int k, bool exact_ties = false);

  /// One user through an unbatched narrow pass (the minimal planned
  /// width) — the baseline batching is measured against. `exact_ties`
  /// as in top_k.
  std::vector<Recommendation> top_k_one(Index user, int k,
                                        bool exact_ties = false);

  /// RMSE of the model over the observed entries, via one SDDMM against
  /// the resident plan; the stationary factor rides the replication
  /// cache, so repeat calls move zero replication words.
  Scalar observed_rmse();

 private:
  /// A pass width's plan and the zero s_pad_.cols() x width input its
  /// SpMMB is handed but never reads.
  struct ScorePlan {
    Plan plan;
    DenseMatrix unread_b;
  };

  void build_resident();
  const ScorePlan& score_plan(Index width);
  void check_request(std::span<const Index> user_ids, int k,
                     bool exact_ties) const;
  /// One kernel pass of `width` columns for `user_ids` (at most width).
  std::vector<std::vector<Recommendation>> score(
      std::span<const Index> user_ids, Index width, int k);
  void absorb(const WorldStats& stats);
  void retire_cache();

  AlsServerConfig config_;
  AlgorithmOptions exec_;    ///< current exec options (faults drop on degrade)
  CooMatrix ratings_;        ///< observations
  std::vector<std::vector<Index>> rated_;  ///< per user: rated items, sorted
  DenseMatrix a_;            ///< user factors, trained width
  DenseMatrix b_;            ///< item factors
  std::vector<Scalar> loss_history_;

  int p_ = 0, c_ = 0;        ///< current grid (shrinks on degrade)
  CooMatrix s_pad_;          ///< padded ratings
  CooMatrix mask_pad_;       ///< indicator of s_pad_ (rmse plan input)
  DenseMatrix a_pad_;        ///< padded user factors
  DenseMatrix b_pad_;
  Index width_multiple_ = 1; ///< current grid's r divisibility

  std::map<Index, ScorePlan> score_plans_;  ///< lazy, keyed by pass width
  std::optional<Plan> rmse_plan_;
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<ReplicationCache> cache_;
  std::uint64_t retired_hits_ = 0;   ///< hits of caches dropped by rebuilds
  std::uint64_t retired_misses_ = 0;
  ServeReport report_;
};

} // namespace dsk
