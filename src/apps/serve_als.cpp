#include "apps/serve_als.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <vector>

#include "common/timer.hpp"
#include "dist/problem.hpp"
#include "sparse/partition.hpp"

namespace dsk {

namespace {

Index round_up(Index value, Index multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

/// Run body(slice) on every rank of `world`, rank q taking the q-th
/// contiguous share of [0, count) (shares may be empty).
void run_sliced(SimWorld& world, Index count,
                const std::function<void(Slice)>& body) {
  const std::vector<Index> bounds = partition_uniform(count, world.size());
  world.run([&](Comm& comm) {
    const auto q = static_cast<std::size_t>(comm.rank());
    body({bounds[q], bounds[q + 1]});
  });
}

} // namespace

AlsServer::AlsServer(const CooMatrix& ratings, const AlsServerConfig& config)
    : config_(config), exec_(config.exec), ratings_(ratings) {
  check(ratings_.nnz() > 0, "AlsServer: no ratings");
  check(ratings_.is_sorted_unique(),
        "AlsServer: ratings must be sorted with unique entries "
        "(call sort_and_combine first)");
  check(config_.batch_width >= 1, "AlsServer: batch_width must be positive");
  p_ = config_.train.p;
  c_ = config_.train.c;

  // Per-user rated-item lists for recommendation filtering (entries are
  // sorted by (row, col), so each list arrives ascending).
  rated_.assign(static_cast<std::size_t>(ratings_.rows()), {});
  for (Index k = 0; k < ratings_.nnz(); ++k) {
    const auto e = ratings_.entry(k);
    rated_[static_cast<std::size_t>(e.row)].push_back(e.col);
  }

  // Train once, fault-free, on the padded problem; serving state only
  // ever sees the trained factors.
  AlsConfig tc = config_.train;
  const DimsRequirement req = dims_requirement(tc.kind, p_, c_);
  tc.rank = round_up(tc.rank, req.r_multiple);
  const PaddedProblem padded =
      pad_problem(tc.kind, p_, c_, ratings_,
                  DenseMatrix(ratings_.rows(), tc.rank),
                  DenseMatrix(ratings_.cols(), tc.rank));
  AlsResult trained = run_als(padded.s, tc);
  a_ = unpad_dense(trained.a, ratings_.rows(), tc.rank);
  b_ = unpad_dense(trained.b, ratings_.cols(), tc.rank);
  loss_history_ = std::move(trained.loss_history);
  build_resident();
}

AlsServer::~AlsServer() = default;

void AlsServer::build_resident() {
  PaddedProblem padded =
      pad_problem(config_.train.kind, p_, c_, ratings_, a_, b_);
  s_pad_ = std::move(padded.s);
  a_pad_ = std::move(padded.a);
  b_pad_ = std::move(padded.b);
  mask_pad_ = s_pad_;
  for (auto& v : mask_pad_.values()) v = 1.0;
  width_multiple_ =
      dims_requirement(config_.train.kind, p_, c_).r_multiple;

  score_plans_.clear();
  rmse_plan_.emplace(make_plan(config_.train.kind, p_, c_, mask_pad_,
                               a_pad_.cols(), exec_));
  report_.plan_builds += 1;
  world_ = std::make_unique<SimWorld>(p_);
  retire_cache();
  cache_ = std::make_unique<ReplicationCache>(p_);
}

void AlsServer::retire_cache() {
  if (cache_ == nullptr) return;
  retired_hits_ += cache_->hits();
  retired_misses_ += cache_->misses();
}

const AlsServer::ScorePlan& AlsServer::score_plan(Index width) {
  auto it = score_plans_.find(width);
  if (it == score_plans_.end()) {
    it = score_plans_
             .emplace(width,
                      ScorePlan{make_plan(config_.train.kind, p_, c_, s_pad_,
                                          width, exec_),
                                DenseMatrix(s_pad_.cols(), width)})
             .first;
    report_.plan_builds += 1;
  }
  return it->second;
}

void AlsServer::check_request(std::span<const Index> user_ids, int k,
                              bool exact_ties) const {
  check(k >= 1, "AlsServer: top_k needs k >= 1");
  check(!(exact_ties && exec_.codec.precision == WirePrecision::BF16),
        "AlsServer: request demands exact top-k ties, but the server's "
        "bf16 wire precision can merge distinct scores into fabricated "
        "ties — serve this request from a full or f32 precision server");
  for (const Index user : user_ids) {
    check(user >= 0 && user < users(), "AlsServer: user ", user,
          " out of range [0, ", users(), ")");
  }
}

std::vector<std::vector<Recommendation>> AlsServer::score(
    std::span<const Index> user_ids, Index width, int k) {
  const ScorePlan& pass = score_plan(width);
  DenseMatrix sim = DenseMatrix::uninitialized(s_pad_.rows(), width);
  std::vector<std::vector<Recommendation>> answers(user_ids.size());
  const Timer clock;
  run_sliced(*world_, sim.rows(), [&](Slice rows) {
    fill_similarity_block(a_, user_ids, sim, rows);
  });
  const double filled = clock.seconds();
  const ExecuteOptions exec{.world = world_.get()};
  const KernelResult result =
      pass.plan.execute(Mode::SpMMB, s_pad_, sim, pass.unread_b, exec);
  const double executed = clock.seconds();
  run_sliced(*world_, static_cast<Index>(user_ids.size()),
             [&](Slice requests) {
               top_k_unrated(result.dense, items(), user_ids, rated_, k,
                             requests, answers);
             });
  report_.fill_seconds += filled;
  report_.execute_seconds += executed - filled;
  report_.top_k_seconds += clock.seconds() - executed;
  report_.batches += 1;
  report_.requests += static_cast<int>(user_ids.size());
  absorb(result.stats);
  return answers;
}

std::vector<std::vector<Recommendation>> AlsServer::top_k(
    std::span<const Index> user_ids, int k, bool exact_ties) {
  check_request(user_ids, k, exact_ties);
  std::vector<std::vector<Recommendation>> out;
  out.reserve(user_ids.size());
  // Each pass runs on the CURRENT residency: a degrade absorbed after a
  // pass re-plans onto a smaller grid and may change the width multiple.
  const auto most = static_cast<std::size_t>(config_.batch_width);
  for (std::size_t taken = 0; taken < user_ids.size(); taken += most) {
    const auto batch =
        user_ids.subspan(taken, std::min(most, user_ids.size() - taken));
    const Index width =
        snap_batch_width(static_cast<Index>(batch.size()),
                         config_.batch_width, width_multiple_);
    std::ranges::move(score(batch, width, k), std::back_inserter(out));
  }
  return out;
}

std::vector<Recommendation> AlsServer::top_k_one(Index user, int k,
                                                 bool exact_ties) {
  check_request({&user, 1}, k, exact_ties);
  return std::move(score({&user, 1}, width_multiple_, k).front());
}

Scalar AlsServer::observed_rmse() {
  ExecuteOptions exec;
  exec.world = world_.get();
  exec.cache = cache_.get();
  const KernelResult result =
      rmse_plan_->execute(Mode::SDDMM, mask_pad_, a_pad_, b_pad_, exec);
  report_.rmse_calls += 1;
  // The mask's SDDMM values are the model's predictions <a_i, b_j> at
  // every observed entry, in s_pad_ entry order — whose values are the
  // true ratings.
  const auto vals = s_pad_.values();
  double sum = 0;
  for (Index k = 0; k < s_pad_.nnz(); ++k) {
    const auto kk = static_cast<std::size_t>(k);
    const double err = vals[kk] - result.sddmm_values[kk];
    sum += err * err;
  }
  const auto rmse = static_cast<Scalar>(
      std::sqrt(sum / static_cast<double>(s_pad_.nnz())));
  absorb(result.stats);
  report_.cache_hits = retired_hits_ + cache_->hits();
  report_.cache_misses = retired_misses_ + cache_->misses();
  return rmse;
}

void AlsServer::absorb(const WorldStats& stats) {
  report_.setup_builds += stats.setup_builds();
  report_.last_imbalance = stats.load_imbalance();
  if (stats.degraded()) {
    report_.degraded = true;
    report_.degraded_rank = stats.degraded_rank();
    report_.degraded_from = stats.degraded_from();
    report_.degraded_to = stats.degraded_to();
    const auto [p2, c2] = shrink_config(config_.train.kind, p_, c_);
    p_ = p2;
    c_ = c2;
    // The crash is history — the shrunken residency serves fault-free.
    exec_.faults = nullptr;
    report_.replans += 1;
    build_resident();
  }
}

} // namespace dsk
