#include "apps/serve_als.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dist/problem.hpp"

namespace dsk {

namespace {

Index round_up(Index value, Index multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

} // namespace

AlsServer::AlsServer(const CooMatrix& ratings, const AlsServerConfig& config)
    : config_(config),
      exec_(config.exec),
      ratings_(ratings),
      reshard_rng_(config.reshard_seed) {
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

  perm_.resize(static_cast<std::size_t>(ratings_.rows()));
  std::iota(perm_.begin(), perm_.end(), Index{0});
  build_resident();
}

AlsServer::~AlsServer() = default;

void AlsServer::build_resident() {
  const Index m = ratings_.rows();
  const Index n = ratings_.cols();

  // Apply the current row permutation to the observations and the user
  // factors (scores and RMSE are permutation-invariant — only the rank
  // placement of user rows moves).
  CooMatrix permuted(m, n);
  permuted.reserve(ratings_.nnz());
  for (Index k = 0; k < ratings_.nnz(); ++k) {
    const auto e = ratings_.entry(k);
    permuted.push_back(perm_[static_cast<std::size_t>(e.row)], e.col,
                       e.value);
  }
  permuted.sort_and_combine();
  DenseMatrix a_perm(m, a_.cols());
  for (Index i = 0; i < m; ++i) {
    const auto src = a_.row(i);
    const auto dst = a_perm.row(perm_[static_cast<std::size_t>(i)]);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  PaddedProblem padded =
      pad_problem(config_.train.kind, p_, c_, permuted, a_perm, b_);
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

const Plan& AlsServer::score_plan(Index width) {
  auto it = score_plans_.find(width);
  if (it == score_plans_.end()) {
    it = score_plans_
             .emplace(width, make_plan(config_.train.kind, p_, c_, s_pad_,
                                       width, exec_))
             .first;
    report_.plan_builds += 1;
  }
  return it->second;
}

std::vector<Scalar> AlsServer::similarity_column(Index user) const {
  check(user >= 0 && user < users(), "AlsServer: user ", user,
        " out of range [0, ", users(), ")");
  std::vector<Scalar> column(static_cast<std::size_t>(s_pad_.rows()),
                             Scalar{0});
  const auto anchor = a_.row(user);
  for (Index i = 0; i < users(); ++i) {
    const auto row = a_.row(i);
    Scalar dot = 0;
    for (std::size_t f = 0; f < row.size(); ++f) dot += row[f] * anchor[f];
    column[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
        dot;
  }
  return column;
}

std::vector<Recommendation> AlsServer::extract_top_k(
    const DenseMatrix& scores, Index column, Index user, int k) const {
  const auto& seen = rated_[static_cast<std::size_t>(user)];
  std::vector<Recommendation> candidates;
  candidates.reserve(static_cast<std::size_t>(items()));
  for (Index item = 0; item < items(); ++item) {
    if (std::binary_search(seen.begin(), seen.end(), item)) continue;
    candidates.push_back({item, scores(item, column)});
  }
  const auto count = std::min(static_cast<std::size_t>(k),
                              candidates.size());
  std::partial_sort(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(count),
      candidates.end(),
      [](const Recommendation& x, const Recommendation& y) {
        if (x.score != y.score) return x.score > y.score;
        return x.item < y.item;
      });
  candidates.resize(count);
  return candidates;
}

std::vector<std::vector<Recommendation>> AlsServer::top_k(
    std::span<const Index> user_ids, int k, bool exact_ties) {
  check(k >= 1, "AlsServer: top_k needs k >= 1");
  check(!(exact_ties && exec_.codec.precision == WirePrecision::BF16),
        "AlsServer: request demands exact top-k ties, but the server's "
        "bf16 wire precision can merge distinct scores into fabricated "
        "ties — serve this request from a full or f32 precision server");
  std::vector<std::vector<Recommendation>> out;
  out.reserve(user_ids.size());
  std::size_t taken = 0;
  while (taken < user_ids.size()) {
    // Batches are built against the CURRENT residency, one at a time —
    // a degrade or reshard absorbed after a batch re-permutes the rows,
    // so columns must never outlive the residency they were built for.
    RequestBatcher batcher(s_pad_.rows(), config_.batch_width,
                           width_multiple_);
    const std::size_t until =
        std::min(taken + static_cast<std::size_t>(config_.batch_width),
                 user_ids.size());
    for (std::size_t i = taken; i < until; ++i) {
      batcher.enqueue(similarity_column(user_ids[i]));
    }
    const auto batch = batcher.take();
    const Index width = batch.columns.cols();
    ExecuteOptions exec;
    exec.world = world_.get();
    const KernelResult result =
        score_plan(width).execute(Mode::SpMMB, s_pad_, batch.columns,
                                  DenseMatrix(s_pad_.cols(), width), exec);
    report_.batches += 1;
    report_.requests += static_cast<int>(batch.real);
    for (Index j = 0; j < batch.real; ++j) {
      out.push_back(
          extract_top_k(result.dense, j, user_ids[taken + static_cast<std::size_t>(j)], k));
    }
    taken = until;
    absorb(result.stats);
  }
  return out;
}

std::vector<Recommendation> AlsServer::top_k_one(Index user, int k,
                                                 bool exact_ties) {
  check(k >= 1, "AlsServer: top_k needs k >= 1");
  check(!(exact_ties && exec_.codec.precision == WirePrecision::BF16),
        "AlsServer: request demands exact top-k ties, but the server's "
        "bf16 wire precision can merge distinct scores into fabricated "
        "ties — serve this request from a full or f32 precision server");
  const Index width = width_multiple_;
  DenseMatrix narrow(s_pad_.rows(), width);
  const auto column = similarity_column(user);
  for (Index i = 0; i < narrow.rows(); ++i) {
    narrow(i, 0) = column[static_cast<std::size_t>(i)];
  }
  ExecuteOptions exec;
  exec.world = world_.get();
  const KernelResult result =
      score_plan(width).execute(Mode::SpMMB, s_pad_, narrow,
                                DenseMatrix(s_pad_.cols(), width), exec);
  report_.batches += 1;
  report_.requests += 1;
  auto recs = extract_top_k(result.dense, 0, user, k);
  absorb(result.stats);
  return recs;
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

void AlsServer::reshard() {
  std::vector<Index> perm(static_cast<std::size_t>(users()));
  std::iota(perm.begin(), perm.end(), Index{0});
  for (Index i = users() - 1; i > 0; --i) {
    const Index j = reshard_rng_.next_index(0, i + 1);
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  perm_ = std::move(perm);
  report_.reshards += 1;
  report_.replans += 1;
  build_resident();
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
    return;
  }
  if (config_.reshard_threshold > 0 &&
      report_.last_imbalance > config_.reshard_threshold) {
    reshard();
  }
}

} // namespace dsk
