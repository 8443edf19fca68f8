#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/serve_als.hpp"
#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "dist/replication_cache.hpp"
#include "layers.hpp"
#include "local/reference.hpp"
#include "runtime/world.hpp"
#include "sparse/generate.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

using dsk::AlgorithmKind;
using dsk::CooMatrix;
using dsk::DenseMatrix;
using dsk::Index;
using dsk::Scalar;

namespace {

constexpr int kRanks = 4;          // simulated ranks = threads = nproc
/// setup_s is the median of at least kMinSetups setups, repeated until
/// kSetupBudgetSeconds of setting up have passed (at most kMaxSetups).
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetSeconds = 2.0;
constexpr std::size_t kMinSamples = 100;
/// Untimed calls between the last setup and the first timed call: the
/// first calls after setting up ran up to twice as slow, for up to about
/// 0.7 s, which would put them in the latency tail.
constexpr double kSteadyWarmSeconds = 1.5;
constexpr std::size_t kSteadyWarmCalls = 3;
constexpr double kMaxLoopSeconds = 120;
/// The layers' self times must account for the timed calls' wall time
/// to within this share (what no layer claims is the harness's own).
constexpr double kAccountingTolerance = 0.05;
constexpr double kRelTolerance = 1e-9;  // distributed vs serial reference

const dsk::MachineModel kMachine = dsk::MachineModel::cori_knl();

/// One distributed call as its WorldStats report it.
struct CallStats {
  double wall_s = 0;
  double repl_s = 0, prop_s = 0, comp_s = 0;  // max over ranks per phase
  double kernel_s = 0;                        // critical rank's sum
  double crit_repl_s = 0, crit_prop_s = 0, crit_comp_s = 0;
  double imbalance = 1;
  double words = 0, messages = 0;
  double modeled_comm_s = 0;
};

CallStats summarize(const dsk::WorldStats& st, double wall_s) {
  using dsk::Phase;
  CallStats cs;
  cs.wall_s = wall_s;
  cs.repl_s = st.measured_phase_seconds(Phase::Replication);
  cs.prop_s = st.measured_phase_seconds(Phase::Propagation);
  cs.comp_s = st.measured_phase_seconds(Phase::Computation);
  for (int r = 0; r < st.num_ranks(); ++r) {
    const auto& rank = st.rank(r);
    const double total = rank.seconds(Phase::Replication) +
                         rank.seconds(Phase::Propagation) +
                         rank.seconds(Phase::Computation);
    if (total > cs.kernel_s) {
      cs.kernel_s = total;
      cs.crit_repl_s = rank.seconds(Phase::Replication);
      cs.crit_prop_s = rank.seconds(Phase::Propagation);
      cs.crit_comp_s = rank.seconds(Phase::Computation);
    }
  }
  cs.imbalance = st.load_imbalance();
  for (const Phase ph : {Phase::Replication, Phase::Propagation}) {
    cs.words += static_cast<double>(st.max_words(ph));
    cs.messages += static_cast<double>(st.max_messages(ph));
  }
  cs.modeled_comm_s = st.modeled_comm_seconds(kMachine);
  return cs;
}

/// Median of one CallStats field over calls.
template <typename F>
double median_of(const std::vector<CallStats>& calls, F field) {
  std::vector<double> v;
  for (const auto& c : calls) v.push_back(field(c));
  return median(v);
}

/// Place the critical rank's phase spans (runtime: replication and
/// propagation; local: computation) inside the call span `parent`,
/// starting at `start_us`. Their durations are the program's own
/// PhaseScope measurements.
void add_phase_spans(Tracer& t, int parent, double start_us,
                     const CallStats& cs) {
  double at = start_us;
  const struct {
    const char* name;
    const char* layer;
    double s;
  } phases[] = {{"runtime.replication", "runtime", cs.crit_repl_s},
                {"runtime.propagation", "runtime", cs.crit_prop_s},
                {"local.computation", "local", cs.crit_comp_s}};
  for (const auto& ph : phases) {
    t.add(ph.name, ph.layer, at, at + ph.s * 1e6, parent, true);
    at += ph.s * 1e6;
  }
}

/// dist.* metrics from a set of calls.
void set_dist_metrics(const std::vector<CallStats>& calls,
                      const std::vector<double>& plan_build_s, Result& out) {
  out.set("dist.replication_ms",
          median_of(calls, [](const CallStats& c) { return c.repl_s; }) * 1e3,
          "ms");
  out.set("dist.propagation_ms",
          median_of(calls, [](const CallStats& c) { return c.prop_s; }) * 1e3,
          "ms");
  out.set("dist.computation_ms",
          median_of(calls, [](const CallStats& c) { return c.comp_s; }) * 1e3,
          "ms");
  out.set("dist.outside_phases_ms",
          median_of(calls,
                    [](const CallStats& c) { return c.wall_s - c.kernel_s; }) *
              1e3,
          "ms");
  out.set("dist.load_imbalance",
          median_of(calls, [](const CallStats& c) { return c.imbalance; }),
          "ratio");
  out.set("dist.plan_build_ms", median(plan_build_s) * 1e3, "ms");
  out.set("runtime.words_max",
          median_of(calls, [](const CallStats& c) { return c.words; }),
          "words");
  out.set("runtime.messages_max",
          median_of(calls, [](const CallStats& c) { return c.messages; }),
          "count");
}

bool same_answers(const std::vector<dsk::Recommendation>& x,
                  const std::vector<dsk::Recommendation>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].item != y[i].item ||
        digest(std::span<const Scalar>(&x[i].score, 1)) !=
            digest(std::span<const Scalar>(&y[i].score, 1))) {
      return false;
    }
  }
  return true;
}

bool close_to(std::span<const Scalar> got, std::span<const Scalar> want) {
  if (got.size() != want.size()) return false;
  double scale = 1;
  for (const Scalar x : want) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= kRelTolerance * scale)) return false;
  }
  return true;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build ready-to-serve state from the generated inputs and warm it
  /// up: lazy plans, caches and first-touch allocation are paid here.
  virtual void setup(Tracer& t) = 0;
  virtual void teardown() = 0;
  /// Check the first setup's warm-up outputs against the serial
  /// reference; later setups must reproduce them bit for bit.
  virtual bool check_reference() = 0;
  virtual bool check_repeat() = 0;
  /// One timed call (fusedmm) or closed-loop round (als); returns the
  /// requests it served.
  virtual int call(Tracer& t) = 0;
  /// Untimed checks of the last call; returns the failed requests.
  virtual int verify() = 0;
  virtual double modeled_comm_ms() const = 0;
  /// Traced run only: measurements the call spans are attributed with.
  virtual void prepare_trace(Tracer& t) = 0;
  /// Traced run only: dist.*, apps.* and per-call runtime.* metrics.
  virtual void layer_metrics(Result& out) const = 0;
  virtual RankBlocks blocks() const = 0;
  virtual dsk::ReplicationMode replication() const = 0;
  virtual dsk::PropagationMode propagation() const = 0;
};

// ------------------------------------------------------------ fusedmm

struct FusedConfig {
  AlgorithmKind kind;
  int c;
  dsk::Elision elision;
  dsk::AlgorithmOptions options;
  Index r;
};

class FusedWorkload final : public Workload {
 public:
  FusedWorkload(CooMatrix s, FusedConfig cfg, std::uint64_t seed)
      : s_(std::move(s)), cfg_(cfg), a_(s_.rows(), cfg.r),
        b_(s_.cols(), cfg.r) {
    dsk::Rng rng(seed ^ 0xFACADEULL);
    a_.fill_random(rng);
    b_.fill_random(rng);
  }

  void setup(Tracer& t) override {
    {
      Scope span(t, "dist.pad_problem", "dist");
      padded_ = dsk::pad_problem(cfg_.kind, kRanks, cfg_.c, s_, a_, b_);
    }
    {
      Scope span(t, "dist.make_plan", "dist");
      plan_.emplace(dsk::make_plan(cfg_.kind, kRanks, cfg_.c, padded_.s,
                                   padded_.a.cols(), cfg_.options));
    }
    plan_build_s_.push_back(plan_->build_seconds());
    {
      Scope span(t, "runtime.SimWorld()", "runtime");
      world_ = std::make_unique<dsk::SimWorld>(kRanks);
    }
    Scope span(t, "dist.Plan::execute_fusedmm(warm-up)", "dist");
    last_ = execute();
  }

  void teardown() override {
    plan_.reset();
    world_.reset();
    padded_ = {};
    last_ = {};
  }

  bool check_reference() override {
    modeled_comm_ms_ = last_.stats.modeled_comm_seconds(kMachine) * 1e3;
    first_digest_ = digest(last_.output.data());
    const DenseMatrix want = dsk::reference_fusedmm_a(s_, a_, b_);
    const DenseMatrix got =
        dsk::unpad_dense(last_.output, s_.rows(), cfg_.r);
    return close_to(got.data(), want.data());
  }

  bool check_repeat() override {
    return digest(last_.output.data()) == first_digest_;
  }

  int call(Tracer& t) override {
    const int id = t.begin("dist.Plan::execute_fusedmm", "dist");
    last_ = execute();
    t.end(id);
    if (id >= 0) {
      const Span span = t.spans()[static_cast<std::size_t>(id)];
      const CallStats cs = summarize(last_.stats, span.duration_us() / 1e6);
      add_phase_spans(t, id, span.start_us, cs);
      calls_.push_back(cs);
    }
    return 1;
  }

  int verify() override { return check_repeat() ? 0 : 1; }
  double modeled_comm_ms() const override { return modeled_comm_ms_; }
  void prepare_trace(Tracer&) override {}

  void layer_metrics(Result& out) const override {
    set_dist_metrics(calls_, plan_build_s_, out);
    for (const char* name : {"apps.top_k_ms", "apps.self_ms", "apps.rmse_ms"}) {
      out.set(name, 0.0, "ms");
    }
    out.set("apps.batch_fill", 0.0, "ratio");
    out.set("apps.cache_hit_ratio", 0.0, "ratio");
  }

  RankBlocks blocks() const override {
    return cfg_.kind == AlgorithmKind::SparseRepl25D
               ? sparse_repl_blocks(padded_.s, kRanks, cfg_.c, padded_.a.cols())
               : dense_shift_blocks(padded_.s, kRanks, cfg_.c,
                                    padded_.a.cols());
  }
  dsk::ReplicationMode replication() const override {
    return cfg_.options.replication;
  }
  dsk::PropagationMode propagation() const override {
    return cfg_.options.propagation;
  }

 private:
  dsk::FusedResult execute() const {
    dsk::ExecuteOptions exec;
    exec.world = world_.get();
    return plan_->execute_fusedmm(dsk::FusedOrientation::A, cfg_.elision,
                                  padded_.s, padded_.a, padded_.b, 1, exec);
  }

  CooMatrix s_;
  FusedConfig cfg_;
  DenseMatrix a_, b_;
  dsk::PaddedProblem padded_;
  std::optional<dsk::Plan> plan_;
  std::unique_ptr<dsk::SimWorld> world_;
  dsk::FusedResult last_;
  std::uint64_t first_digest_ = 0;
  double modeled_comm_ms_ = 0;
  std::vector<double> plan_build_s_;
  std::vector<CallStats> calls_;
};

// ---------------------------------------------------------- als-serve

constexpr int kClients = 32;
constexpr int kTopK = 10;
constexpr int kRmseEvery = 16;   // rounds between observed_rmse calls
constexpr int kSampleEvery = 4;  // rounds between top_k_one spot checks

class AlsWorkload final : public Workload {
 public:
  AlsWorkload(CooMatrix ratings, std::uint64_t seed)
      : ratings_(std::move(ratings)), clients_(seed ^ 0xC1E27ULL) {
    cfg_.train.rank = 32;
    cfg_.train.kind = AlgorithmKind::DenseShift15D;
    cfg_.train.p = kRanks;
    cfg_.train.c = 2;
    cfg_.train.seed = seed;
    cfg_.batch_width = kClients;
    dsk::Rng warm(seed ^ 0x3A53ULL);
    for (int i = 0; i < kClients; ++i) {
      warm_users_.push_back(warm.next_index(0, ratings_.rows()));
    }
  }

  void setup(Tracer& t) override {
    {
      Scope span(t, "apps.AlsServer()", "apps");
      server_ = std::make_unique<dsk::AlsServer>(ratings_, cfg_);
    }
    Scope span(t, "apps.warm-up", "apps");
    warm_answers_ = server_->top_k(warm_users_, kTopK);
    warm_rmse_ = server_->observed_rmse();
    server_->top_k_one(warm_users_.front(), kTopK);
  }

  void teardown() override { server_.reset(); }

  bool check_reference() override {
    first_answers_ = warm_answers_;
    first_rmse_ = warm_rmse_;
    twin_modeled_comm();
    return check_against_serial();
  }

  bool check_repeat() override {
    for (std::size_t j = 0; j < warm_answers_.size(); ++j) {
      if (!same_answers(warm_answers_[j], first_answers_[j])) return false;
    }
    return same_bits(warm_rmse_, first_rmse_);
  }

  int call(Tracer& t) override {
    ++round_;
    users_.clear();
    for (int i = 0; i < kClients; ++i) {
      users_.push_back(clients_.next_index(0, ratings_.rows()));
    }
    const auto before = server_->report();
    {
      Scope span(t, "apps.AlsServer::top_k", "apps");
      const double t0 = now_s();
      answers_ = server_->top_k(users_, kTopK);
      top_k_s_.push_back(now_s() - t0);
      attribute(t, span.id(), twin_top_k_);
    }
    const auto after = server_->report();
    filled_ += after.requests - before.requests;
    batches_ += after.batches - before.batches;
    rmse_ran_ = round_ % kRmseEvery == 0;
    if (rmse_ran_) {
      Scope span(t, "apps.AlsServer::observed_rmse", "apps");
      const double t0 = now_s();
      rmse_ = server_->observed_rmse();
      rmse_s_.push_back(now_s() - t0);
      attribute(t, span.id(), twin_rmse_);
    }
    return kClients + (rmse_ran_ ? 1 : 0);
  }

  int verify() override {
    int failed = 0;
    if (rmse_ran_ && !same_bits(rmse_, first_rmse_)) ++failed;
    if (round_ % kSampleEvery == 0) {
      const auto j = static_cast<std::size_t>((round_ / kSampleEvery) %
                                              kClients);
      if (!same_answers(server_->top_k_one(users_[j], kTopK), answers_[j])) {
        ++failed;
      }
    }
    return failed;
  }

  double modeled_comm_ms() const override { return modeled_comm_ms_; }

  /// The twin: a Plan of the same kind and width over identically padded
  /// ratings, on its own resident world, executing the SpMMB that top_k
  /// runs and the cached SDDMM that observed_rmse runs. Its WorldStats
  /// stand in for the ones AlsServer does not expose.
  void prepare_trace(Tracer& t) override {
    Scope span(t, "bench.twin", "bench");
    TwinState twin = make_twin();
    plan_build_s_.push_back(twin.score.build_seconds());
    auto time_calls = [&](const std::function<dsk::KernelResult()>& once) {
      once();  // first touch (and the rmse twin's cold cache)
      std::vector<CallStats> calls;
      for (int i = 0; i < 30; ++i) {
        const double t0 = now_s();
        const dsk::KernelResult r = once();
        calls.push_back(summarize(r.stats, now_s() - t0));
      }
      return calls;
    };
    dsk::ExecuteOptions exec;
    exec.world = twin.world.get();
    twin_calls_ = time_calls([&] {
      return twin.score.execute(dsk::Mode::SpMMB, twin.padded.s, twin.padded.a,
                                twin.padded.b, exec);
    });
    dsk::ExecuteOptions cached = exec;
    cached.cache = twin.cache.get();
    const auto rmse_calls = time_calls([&] {
      return twin.rmse.execute(dsk::Mode::SDDMM, twin.mask, twin.padded.a,
                               twin.padded.b, cached);
    });
    twin_top_k_ = median_call(twin_calls_);
    twin_rmse_ = median_call(rmse_calls);
    padded_s_ = twin.padded.s;
  }

  void layer_metrics(Result& out) const override {
    set_dist_metrics(twin_calls_, plan_build_s_, out);
    const double top_k_ms = median(top_k_s_) * 1e3;
    out.set("apps.top_k_ms", top_k_ms, "ms");
    out.set("apps.self_ms", top_k_ms - twin_top_k_.wall_s * 1e3, "ms");
    out.set("apps.rmse_ms", rmse_s_.empty() ? 0.0 : median(rmse_s_) * 1e3,
            "ms");
    out.set("apps.batch_fill",
            batches_ > 0 ? static_cast<double>(filled_) /
                               static_cast<double>(batches_ * kClients)
                         : 0.0,
            "ratio");
    const auto& rep = server_->report();
    const double lookups =
        static_cast<double>(rep.cache_hits + rep.cache_misses);
    out.set("apps.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(rep.cache_hits) / lookups : 0.0,
            "ratio");
  }

  RankBlocks blocks() const override {
    return dense_shift_blocks(padded_s_, kRanks, cfg_.train.c,
                              cfg_.batch_width);
  }
  dsk::ReplicationMode replication() const override {
    return cfg_.exec.replication;
  }
  dsk::PropagationMode propagation() const override {
    return cfg_.exec.propagation;
  }

 private:
  struct TwinState {
    dsk::PaddedProblem padded;
    CooMatrix mask;
    dsk::Plan score;
    dsk::Plan rmse;
    std::unique_ptr<dsk::SimWorld> world;
    std::unique_ptr<dsk::ReplicationCache> cache;
  };

  TwinState make_twin() const {
    const Index w = cfg_.batch_width;
    dsk::Rng rng(0x7817);
    DenseMatrix a(ratings_.rows(), w), b(ratings_.cols(), w);
    a.fill_random(rng);
    b.fill_random(rng);
    dsk::PaddedProblem padded = dsk::pad_problem(
        cfg_.train.kind, kRanks, cfg_.train.c, ratings_, a, b);
    CooMatrix mask = padded.s;
    for (auto& v : mask.values()) v = 1.0;
    dsk::Plan score = dsk::make_plan(cfg_.train.kind, kRanks, cfg_.train.c,
                                     padded.s, w, cfg_.exec);
    dsk::Plan rmse = dsk::make_plan(cfg_.train.kind, kRanks, cfg_.train.c,
                                    mask, w, cfg_.exec);
    return {std::move(padded), std::move(mask), std::move(score),
            std::move(rmse), std::make_unique<dsk::SimWorld>(kRanks),
            std::make_unique<dsk::ReplicationCache>(kRanks)};
  }

  /// The request path's communication is the twin SpMMB's (same kind,
  /// grid, padded shape and width, so the same words and messages).
  void twin_modeled_comm() {
    TwinState twin = make_twin();
    dsk::ExecuteOptions exec;
    exec.world = twin.world.get();
    const auto r = twin.score.execute(dsk::Mode::SpMMB, twin.padded.s,
                                      twin.padded.a, twin.padded.b, exec);
    modeled_comm_ms_ = r.stats.modeled_comm_seconds(kMachine) * 1e3;
  }

  static CallStats median_call(const std::vector<CallStats>& calls) {
    CallStats m;
    m.wall_s = median_of(calls, [](const CallStats& c) { return c.wall_s; });
    m.crit_repl_s =
        median_of(calls, [](const CallStats& c) { return c.crit_repl_s; });
    m.crit_prop_s =
        median_of(calls, [](const CallStats& c) { return c.crit_prop_s; });
    m.crit_comp_s =
        median_of(calls, [](const CallStats& c) { return c.crit_comp_s; });
    return m;
  }

  /// Attribute an apps span: a derived dist span with the twin's median
  /// execute time, holding the twin's median phase split.
  static void attribute(Tracer& t, int parent, const CallStats& twin) {
    if (!t.enabled()) return;
    const double start = t.spans()[static_cast<std::size_t>(parent)].start_us;
    const int id = t.add("dist.Plan::execute(twin)", "dist", start,
                         start + twin.wall_s * 1e6, parent, true);
    add_phase_spans(t, id, start, twin);
  }

  static bool same_bits(Scalar x, Scalar y) {
    return digest(std::span<const Scalar>(&x, 1)) ==
           digest(std::span<const Scalar>(&y, 1));
  }

  /// Retrain exactly as AlsServer does (run_als is deterministic), then
  /// score the warm-up users and the RMSE with the serial references.
  bool check_against_serial() const {
    dsk::AlsConfig tc = cfg_.train;
    const dsk::PaddedProblem padded = dsk::pad_problem(
        tc.kind, kRanks, tc.c, ratings_, DenseMatrix(ratings_.rows(), tc.rank),
        DenseMatrix(ratings_.cols(), tc.rank));
    const dsk::AlsResult trained = dsk::run_als(padded.s, tc);
    const DenseMatrix a =
        dsk::unpad_dense(trained.a, ratings_.rows(), tc.rank);
    const DenseMatrix b =
        dsk::unpad_dense(trained.b, ratings_.cols(), tc.rank);

    const Index m = ratings_.rows();
    const Index n = ratings_.cols();
    DenseMatrix sim(m, kClients);
    for (int j = 0; j < kClients; ++j) {
      const auto anchor = a.row(warm_users_[static_cast<std::size_t>(j)]);
      for (Index i = 0; i < m; ++i) {
        const auto row = a.row(i);
        Scalar dot = 0;
        for (std::size_t f = 0; f < row.size(); ++f) dot += row[f] * anchor[f];
        sim(i, j) = dot;
      }
    }
    const DenseMatrix scores = dsk::reference_spmm_b(ratings_, sim);
    double scale = 1;
    for (const Scalar x : scores.data()) scale = std::max(scale, std::abs(x));
    const double tol = kRelTolerance * scale;

    std::vector<std::vector<char>> rated(static_cast<std::size_t>(kClients),
                                         std::vector<char>(
                                             static_cast<std::size_t>(n), 0));
    for (Index k = 0; k < ratings_.nnz(); ++k) {
      const auto e = ratings_.entry(k);
      for (int j = 0; j < kClients; ++j) {
        if (warm_users_[static_cast<std::size_t>(j)] == e.row) {
          rated[static_cast<std::size_t>(j)][static_cast<std::size_t>(e.col)] = 1;
        }
      }
    }
    for (int j = 0; j < kClients; ++j) {
      const auto& got = first_answers_[static_cast<std::size_t>(j)];
      std::vector<Scalar> unrated;
      for (Index item = 0; item < n; ++item) {
        if (rated[static_cast<std::size_t>(j)][static_cast<std::size_t>(item)] == 0) {
          unrated.push_back(scores(item, j));
        }
      }
      const std::size_t k =
          std::min(static_cast<std::size_t>(kTopK), unrated.size());
      if (got.size() != k) return false;
      std::partial_sort(unrated.begin(),
                        unrated.begin() + static_cast<std::ptrdiff_t>(k),
                        unrated.end(), std::greater<>());
      for (std::size_t i = 0; i < k; ++i) {
        const auto item = got[i].item;
        if (rated[static_cast<std::size_t>(j)][static_cast<std::size_t>(item)] != 0) {
          return false;
        }
        // The answer's score is the item's reference score, and the
        // answer ranks like the reference (ties within tolerance aside).
        if (std::abs(got[i].score - scores(item, j)) > tol) return false;
        if (std::abs(got[i].score - unrated[i]) > tol) return false;
      }
    }

    CooMatrix mask = ratings_;
    for (auto& v : mask.values()) v = 1.0;
    const CooMatrix pred = dsk::reference_sddmm(mask, a, b);
    double sum = 0;
    for (Index k = 0; k < ratings_.nnz(); ++k) {
      const double err = ratings_.entry(k).value - pred.entry(k).value;
      sum += err * err;
    }
    const double rmse = std::sqrt(sum / static_cast<double>(ratings_.nnz()));
    return std::abs(rmse - first_rmse_) <= kRelTolerance * std::max(1.0, rmse);
  }

  CooMatrix ratings_;
  dsk::AlsServerConfig cfg_;
  dsk::Rng clients_;
  std::vector<Index> warm_users_;
  std::unique_ptr<dsk::AlsServer> server_;

  std::vector<std::vector<dsk::Recommendation>> warm_answers_, first_answers_,
      answers_;
  Scalar warm_rmse_ = 0, first_rmse_ = 0, rmse_ = 0;
  std::vector<Index> users_;
  std::int64_t round_ = 0;
  bool rmse_ran_ = false;
  std::int64_t filled_ = 0, batches_ = 0;
  double modeled_comm_ms_ = 0;

  std::vector<double> top_k_s_, rmse_s_, plan_build_s_;
  std::vector<CallStats> twin_calls_;
  CallStats twin_top_k_, twin_rmse_;
  CooMatrix padded_s_;
};

// ------------------------------------------------------------- driver

std::unique_ptr<Workload> make_workload(const Options& o) {
  dsk::Rng rng(o.seed);
  if (o.workload == "fusedmm-er") {
    FusedConfig cfg{AlgorithmKind::DenseShift15D, 2,
                    dsk::Elision::LocalKernelFusion, {}, o.r > 0 ? o.r : 128};
    return std::make_unique<FusedWorkload>(
        dsk::erdos_renyi_fixed_row(32768, 32768, 32, rng), cfg, o.seed);
  }
  if (o.workload == "fusedmm-rmat") {
    FusedConfig cfg{AlgorithmKind::SparseRepl25D, 1, dsk::Elision::None, {},
                    o.r > 0 ? o.r : 32};
    cfg.options.replication = dsk::ReplicationMode::Auto;
    cfg.options.propagation = dsk::PropagationMode::Auto;
    return std::make_unique<FusedWorkload>(
        dsk::rmat(65536, 65536, 8 * 65536, rng), cfg, o.seed);
  }
  if (o.workload == "als-serve") {
    return std::make_unique<AlsWorkload>(dsk::rmat(16384, 8192, 16 * 16384, rng),
                                         o.seed);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

struct Loop {
  std::vector<double> latency_s;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
};

/// Closed loop: call, then verify outside the timed interval, until the
/// time is up and at least min_samples calls were timed.
Loop run_loop(Workload& w, Tracer& t, double seconds,
              std::size_t min_samples) {
  Loop loop;
  const double start = now_s();
  while ((now_s() - start < seconds || loop.latency_s.size() < min_samples) &&
         now_s() - start < kMaxLoopSeconds) {
    int served = 0;
    {
      Scope span(t, "bench.call", "bench");
      const double t0 = now_s();
      served = w.call(t);
      loop.latency_s.push_back(now_s() - t0);
    }
    loop.requests += served;
    Scope span(t, "bench.verify", "bench");
    loop.failed += w.verify();
  }
  return loop;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Per-layer self times of the traced calls; true when the layers
/// account for the calls' wall time within kAccountingTolerance.
bool account_layers(const Tracer& t, Result& out) {
  double total_us = 0;
  const auto self = t.self_us_by_layer("bench.call", &total_us);
  std::printf("\nper-layer self time over %.1f ms of traced calls:\n",
              total_us / 1e3);
  std::string dominant;
  double best = -1;
  bool ok = total_us > 0;
  for (const char* layer : {"apps", "dist", "runtime", "local", "bench"}) {
    const auto it = self.find(layer);
    const double us = it == self.end() ? 0.0 : it->second;
    const double share = total_us > 0 ? us / total_us : 0.0;
    std::printf("  %-8s %10.2f ms  %6.1f%%\n", layer, us / 1e3, share * 100);
    if (std::string(layer) == "bench") {
      out.set("trace.unattributed_share", share, "ratio");
      ok = ok && share <= kAccountingTolerance;
    } else {
      out.set(std::string("trace.self_share.") + layer, share, "ratio");
      ok = ok && share >= -kAccountingTolerance;
      if (us > best) {
        best = us;
        dominant = layer;
      }
    }
  }
  std::printf("dominant layer: %s\n", dominant.c_str());
  std::printf("layers account for the call wall time within %.0f%%: %s\n",
              kAccountingTolerance * 100, ok ? "yes" : "NO");
  return ok;
}

} // namespace

Result run_workload(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  Tracer tracer(o.trace);
  Tracer off(false);
  Result res;

  std::vector<double> setup_s;
  double setting_up = 0;
  for (int i = 0; i < kMinSetups ||
                  (setting_up < kSetupBudgetSeconds && i < kMaxSetups);
       ++i) {
    if (i > 0) w->teardown();
    const double t0 = now_s();
    w->setup(tracer);
    setup_s.push_back(now_s() - t0);
    setting_up += setup_s.back();
    const bool ok = i == 0 ? w->check_reference() : w->check_repeat();
    res.attempted += 1;
    if (!ok) {
      res.failed += 1;
      std::printf("setup %d: warm-up output FAILED its check\n", i);
    }
  }

  std::printf("setup_s samples:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  // Outputs of the steady-state warm-up calls are checked like the timed
  // ones; their time counts nowhere.
  const Loop warm = run_loop(*w, off, kSteadyWarmSeconds, kSteadyWarmCalls);
  res.attempted += warm.requests;
  res.failed += warm.failed;
  std::printf("steady-state warm-up: %zu untimed calls\n",
              warm.latency_s.size());

  if (!o.trace) {
    const Loop loop = run_loop(*w, off, o.seconds, kMinSamples);
    res.attempted += loop.requests;
    res.failed += loop.failed;
    double busy = 0;
    for (const double s : loop.latency_s) busy += s;
    std::printf("%s: %zu timed calls, %lld requests, error_rate %.6f\n",
                o.workload.c_str(), loop.latency_s.size(),
                static_cast<long long>(loop.requests),
                static_cast<double>(res.failed) /
                    static_cast<double>(res.attempted));
    std::printf("latency deciles (ms):");
    for (int d = 0; d <= 10; ++d) {
      std::printf(" %.2f", percentile(loop.latency_s, d / 10.0) * 1e3);
    }
    std::printf("\n");
    res.set("latency_p50_ms", percentile(loop.latency_s, 0.5) * 1e3, "ms");
    res.set("latency_p90_ms", percentile(loop.latency_s, 0.9) * 1e3, "ms");
    res.set("requests_per_s", static_cast<double>(loop.requests) / busy,
            "1/s");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("modeled_comm_ms", w->modeled_comm_ms(), "model-ms");
  } else {
    w->prepare_trace(tracer);
    const Loop plain = run_loop(*w, off, o.seconds / 2, kMinSamples / 2);
    const Loop traced = run_loop(*w, tracer, o.seconds / 2, kMinSamples / 2);
    res.attempted += plain.requests + traced.requests;
    res.failed += plain.failed + traced.failed;
    const double p50_plain = percentile(plain.latency_s, 0.5);
    const double p50_traced = percentile(traced.latency_s, 0.5);
    std::printf("%s: latency_p50_ms untraced %.3f (%zu calls), traced %.3f "
                "(%zu calls)\n",
                o.workload.c_str(), p50_plain * 1e3, plain.latency_s.size(),
                p50_traced * 1e3, traced.latency_s.size());
    res.set("trace.overhead_ratio", p50_traced / p50_plain, "ratio");
    w->layer_metrics(res);
    const RankBlocks blocks = w->blocks();
    probe_local(blocks, tracer, res);
    probe_runtime(blocks, w->replication(), w->propagation(), tracer, res);
    if (!account_layers(tracer, res)) {
      res.failed += 1;
      res.attempted += 1;
    }
    if (!o.trace_out.empty()) tracer.write_chrome(o.trace_out);
  }
  res.correct = res.failed == 0;
  return res;
}

} // namespace perfbench
