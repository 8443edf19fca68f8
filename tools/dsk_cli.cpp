/// dsk command-line driver.
///
/// Two modes:
///   dsk_cli [options]          run one distributed kernel / FusedMM
///                              configuration on a generated or Matrix
///                              Market input, print the verified result
///                              quality and the paper's communication
///                              metrics;
///   dsk_cli serve [options]    train an ALS recommender once, then
///                              serve scoring requests from a resident
///                              Plan (apps/serve_als.hpp): batched
///                              kernel passes, cross-call replication
///                              cache, crash-degrade-replan.
///
/// Every flag lives in ONE table (kFlags below): the parser walks it to
/// accept and scope-check flags, and --help prints it. Adding a flag
/// means adding a table row — usage text cannot drift from the parser,
/// and docs/OPTIONS.md is diffed against `dsk_cli --help` by
/// tools/check_options_doc.py in CI.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/serve_als.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "local/reference.hpp"
#include "model/cost_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/permute.hpp"

namespace {

using namespace dsk;

/// Which mode(s) a flag applies to. Scope violations are hard errors —
/// a kernel flag in serve mode would otherwise be silently ignored.
enum class FlagScope { Common, Kernel, Serve };

struct FlagSpec {
  const char* name;    ///< "--op"
  const char* metavar; ///< value placeholder, "" for booleans
  FlagScope scope;
  const char* def;     ///< printable default, "" if none
  const char* help;    ///< one line, shown by --help
};

/// THE flag table. Parser and --help both walk this; docs/OPTIONS.md
/// mirrors it (CI greps --help against the doc).
constexpr FlagSpec kFlags[] = {
    {"--algo", "NAME", FlagScope::Common, "dense-shift",
     "dense-shift | sparse-shift | dense-repl | sparse-repl | baseline"},
    {"--p", "N", FlagScope::Common, "16", "simulated ranks"},
    {"--c", "N", FlagScope::Common, "1", "replication factor"},
    {"--d", "N", FlagScope::Common, "8",
     "nonzeros per row (serve: ratings per user)"},
    {"--r", "N", FlagScope::Common, "32",
     "embedding width (serve: ALS rank)"},
    {"--seed", "N", FlagScope::Common, "1", "RNG seed"},
    {"--replication", "MODE", FlagScope::Common, "dense",
     "dense | auto: how fiber collectives move A-side rows"},
    {"--propagation", "MODE", FlagScope::Common, "dense",
     "dense | auto: how cyclic shifts move dense B-side blocks"},
    {"--schedule", "NAME", FlagScope::Common, "db",
     "db | bsp: propagation engine (both bit-identical)"},
    {"--wire-precision", "PREC", FlagScope::Common, "full",
     "full | f32 | bf16: value precision on the wire (lossy below full)"},
    {"--faults", "SPEC", FlagScope::Common, "",
     "deterministic fault plan, e.g. \"seed=7,drop=0.02,crash=3@prop:2\""},
    {"--max-recoveries", "N", FlagScope::Common, "4",
     "recovery budget before a crash is permanent (needs --faults)"},
    {"--degrade", "", FlagScope::Common, "",
     "shrink-and-replan instead of failing when recovery is spent "
     "(needs --faults)"},
    {"--op", "OP", FlagScope::Kernel, "fusedmm-a",
     "sddmm | spmma | spmmb | fusedmm-a | fusedmm-b"},
    {"--elision", "MODE", FlagScope::Kernel, "none",
     "none | reuse | fusion (FusedMM only)"},
    {"--n", "N", FlagScope::Kernel, "8192", "square matrix side"},
    {"--mtx", "FILE", FlagScope::Kernel, "",
     "load a Matrix Market file instead of generating (--matrix too)"},
    {"--rmat", "", FlagScope::Kernel, "",
     "generate R-MAT instead of Erdos-Renyi"},
    {"--reps", "N", FlagScope::Kernel, "1", "FusedMM repetitions"},
    {"--no-verify", "", FlagScope::Kernel, "",
     "skip the serial reference check (large inputs)"},
    {"--users", "N", FlagScope::Serve, "96",
     "users in the synthetic ratings matrix"},
    {"--items", "N", FlagScope::Serve, "64",
     "items in the synthetic ratings matrix"},
    {"--requests", "N", FlagScope::Serve, "8",
     "scoring requests to serve"},
    {"--batch-width", "N", FlagScope::Serve, "32",
     "max requests per batched pass: 32 | 64 | 128"},
    {"--top-k", "N", FlagScope::Serve, "5",
     "recommendations per request"},
    {"--reshard-threshold", "X", FlagScope::Serve, "0",
     "reshard when a pass's load imbalance exceeds X (0 = never)"},
};

struct Options {
  bool serve = false;
  std::string op = "fusedmm-a";
  std::string algo = "dense-shift";
  std::string elision = "none";
  std::string replication = "dense";
  std::string propagation = "dense";
  std::string schedule = "db";
  std::string wire_precision = "full";
  std::string faults;
  std::string matrix_path;
  bool use_rmat = false;
  bool verify = true;
  int p = 16;
  int c = 1;
  Index n = 8192;
  Index d = 8;
  Index r = 32;
  int max_recoveries = 4;
  bool max_recoveries_set = false;
  bool degrade = false;
  std::uint64_t seed = 1;
  int reps = 1;
  Index users = 96;
  Index items = 64;
  int requests = 8;
  Index batch_width = 32;
  int top_k = 5;
  double reshard_threshold = 0;
};

const char* scope_title(FlagScope scope) {
  switch (scope) {
    case FlagScope::Common: return "options (both modes)";
    case FlagScope::Kernel: return "kernel mode (default)";
    case FlagScope::Serve: return "serve mode (dsk_cli serve)";
  }
  return "";
}

[[noreturn]] void print_help_and_exit() {
  std::printf(
      "usage: dsk_cli [options]        run one kernel / FusedMM "
      "configuration\n"
      "       dsk_cli serve [options]  train an ALS model, serve batched "
      "scoring requests\n");
  for (const FlagScope scope :
       {FlagScope::Common, FlagScope::Kernel, FlagScope::Serve}) {
    std::printf("\n%s:\n", scope_title(scope));
    for (const FlagSpec& flag : kFlags) {
      if (flag.scope != scope) continue;
      std::string head = flag.name;
      if (flag.metavar[0] != '\0') {
        head += ' ';
        head += flag.metavar;
      }
      std::printf("  %-24s %s", head.c_str(), flag.help);
      if (flag.def[0] != '\0') std::printf(" (default %s)", flag.def);
      std::printf("\n");
    }
  }
  std::printf(
      "\nexamples:\n"
      "  dsk_cli --op fusedmm-a --algo dense-shift --elision fusion --p 64 "
      "--c 4\n"
      "  dsk_cli --mtx graph.mtx --algo sparse-shift --elision reuse\n"
      "  dsk_cli --c 8 --schedule bsp\n"
      "  dsk_cli serve --users 96 --items 64 --requests 8 --batch-width "
      "32\n");
  std::exit(0);
}

[[noreturn]] void usage_and_exit(const char* message) {
  std::fprintf(stderr,
               "dsk_cli: %s\nRun dsk_cli --help for the flag table.\n",
               message);
  std::exit(2);
}

/// Strict numeric flag value: the whole token must parse as a T no
/// smaller than `lo` (and inside T's range; NaN and infinities never
/// qualify), else a usage error — "16junk", "abc" and "" are rejected,
/// not read as 16 or 0.
template <typename T>
T parse_number(const std::string& flag, const char* text, T lo) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && stop == end && lo <= value;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::ostringstream message;
    message << "invalid value '" << text << "' for " << flag
            << ": expected a number >= " << lo;
    usage_and_exit(message.str().c_str());
  }
  return value;
}

const FlagSpec* find_flag(const std::string& arg) {
  for (const FlagSpec& flag : kFlags) {
    if (arg == flag.name) return &flag;
  }
  return nullptr;
}

Options parse(int argc, char** argv) {
  Options opt;
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    opt.serve = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") print_help_and_exit();
    if (arg == "--matrix") arg = "--mtx"; // long-standing alias
    const FlagSpec* flag = find_flag(arg);
    if (flag == nullptr) {
      usage_and_exit(("unknown option " + arg).c_str());
    }
    if (opt.serve && flag->scope == FlagScope::Kernel) {
      usage_and_exit((arg + " does not apply to the serve subcommand; "
                      "the serving layer chooses the kernel, input, and "
                      "pass width itself")
                         .c_str());
    }
    if (!opt.serve && flag->scope == FlagScope::Serve) {
      usage_and_exit(
          (arg + " only applies to the serve subcommand (dsk_cli serve)")
              .c_str());
    }
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(("missing value for " + arg).c_str());
      return argv[++i];
    };
    const auto number = [&](auto lo) { return parse_number(arg, next(), lo); };
    if (arg == "--op") opt.op = next();
    else if (arg == "--algo") opt.algo = next();
    else if (arg == "--elision") opt.elision = next();
    else if (arg == "--replication") opt.replication = next();
    else if (arg == "--propagation") opt.propagation = next();
    else if (arg == "--schedule") opt.schedule = next();
    else if (arg == "--wire-precision") opt.wire_precision = next();
    else if (arg == "--faults") opt.faults = next();
    else if (arg == "--mtx") opt.matrix_path = next();
    else if (arg == "--rmat") opt.use_rmat = true;
    else if (arg == "--no-verify") opt.verify = false;
    else if (arg == "--p") opt.p = number(1);
    else if (arg == "--c") opt.c = number(1);
    else if (arg == "--n") opt.n = number(Index{1});
    else if (arg == "--d") opt.d = number(Index{0});
    else if (arg == "--r") opt.r = number(Index{1});
    else if (arg == "--max-recoveries") {
      opt.max_recoveries = number(0);
      opt.max_recoveries_set = true;
    }
    else if (arg == "--degrade") opt.degrade = true;
    else if (arg == "--seed") opt.seed = number(std::uint64_t{0});
    else if (arg == "--reps") opt.reps = number(1);
    else if (arg == "--users") opt.users = number(Index{1});
    else if (arg == "--items") opt.items = number(Index{1});
    else if (arg == "--requests") opt.requests = number(1);
    else if (arg == "--batch-width") opt.batch_width = number(Index{1});
    else if (arg == "--top-k") opt.top_k = number(1);
    else if (arg == "--reshard-threshold") opt.reshard_threshold = number(0.0);
    else usage_and_exit(("unhandled option " + arg).c_str());
  }
  return opt;
}

AlgorithmKind parse_algo(const std::string& name) {
  if (name == "dense-shift") return AlgorithmKind::DenseShift15D;
  if (name == "sparse-shift") return AlgorithmKind::SparseShift15D;
  if (name == "dense-repl") return AlgorithmKind::DenseRepl25D;
  if (name == "sparse-repl") return AlgorithmKind::SparseRepl25D;
  if (name == "baseline") return AlgorithmKind::Baseline1D;
  usage_and_exit(("unknown algorithm " + name).c_str());
}

/// The unified-kernel mode of a --op that is not FusedMM.
Mode parse_mode(const std::string& name) {
  if (name == "sddmm") return Mode::SDDMM;
  if (name == "spmma") return Mode::SpMMA;
  if (name == "spmmb") return Mode::SpMMB;
  usage_and_exit(("unknown op " + name).c_str());
}

Elision parse_elision(const std::string& name) {
  if (name == "none") return Elision::None;
  if (name == "reuse") return Elision::ReplicationReuse;
  if (name == "fusion") return Elision::LocalKernelFusion;
  usage_and_exit(("unknown elision " + name).c_str());
}

ReplicationMode parse_replication(const std::string& name) {
  if (name == "dense") return ReplicationMode::Dense;
  if (name == "auto") return ReplicationMode::Auto;
  usage_and_exit(("unknown replication mode " + name).c_str());
}

PropagationMode parse_propagation(const std::string& name) {
  if (name == "dense") return PropagationMode::Dense;
  if (name == "auto") return PropagationMode::Auto;
  usage_and_exit(("unknown propagation mode " + name).c_str());
}

WirePrecision parse_wire_precision(const std::string& name) {
  if (name == "full") return WirePrecision::Full;
  if (name == "f32") return WirePrecision::F32;
  if (name == "bf16") return WirePrecision::BF16;
  usage_and_exit(("unknown wire precision " + name).c_str());
}

ShiftSchedule parse_schedule(const std::string& name) {
  if (name == "db" || name == "double-buffered") {
    return ShiftSchedule::DoubleBuffered;
  }
  if (name == "bsp" || name == "bulk-synchronous") {
    return ShiftSchedule::BulkSynchronous;
  }
  usage_and_exit(("unknown schedule " + name).c_str());
}

/// Shared option validation + AlgorithmOptions assembly (both modes).
AlgorithmOptions validate_common(const Options& opt) {
  AlgorithmOptions algo_options;
  algo_options.replication = parse_replication(opt.replication);
  algo_options.propagation = parse_propagation(opt.propagation);
  algo_options.schedule = parse_schedule(opt.schedule);
  algo_options.codec.precision = parse_wire_precision(opt.wire_precision);
  if (opt.faults.empty() && (opt.max_recoveries_set || opt.degrade)) {
    usage_and_exit("--max-recoveries and --degrade only apply with "
                   "--faults; refusing to silently ignore them");
  }
  algo_options.max_recoveries = opt.max_recoveries;
  algo_options.degrade = opt.degrade;
  return algo_options;
}

/// Synthetic ratings with planted low-rank structure (the
/// examples/als_recommender.cpp recipe, sized by flags).
CooMatrix synthetic_ratings(Index users, Index items, Index per_user,
                            Rng& rng) {
  const Index true_rank = 4;
  DenseMatrix taste(users, true_rank);
  DenseMatrix appeal(items, true_rank);
  taste.fill_gaussian(rng, 1.0);
  appeal.fill_gaussian(rng, 1.0);
  const CooMatrix pattern =
      erdos_renyi_fixed_row(users, items, per_user, rng);
  CooMatrix ratings(users, items);
  ratings.reserve(pattern.nnz());
  for (Index k = 0; k < pattern.nnz(); ++k) {
    const auto e = pattern.entry(k);
    Scalar dot = 0;
    for (Index f = 0; f < true_rank; ++f) {
      dot += taste(e.row, f) * appeal(e.col, f);
    }
    ratings.push_back(e.row, e.col, dot + 0.05 * rng.next_gaussian());
  }
  ratings.sort_and_combine();
  return ratings;
}

int serve_main(const Options& opt, AlgorithmOptions algo_options) {
  if (opt.batch_width != 32 && opt.batch_width != 64 &&
      opt.batch_width != 128) {
    usage_and_exit("--batch-width must be one of the kernel sweet spots "
                   "32, 64, or 128");
  }

  FaultPlan fault_plan;
  if (!opt.faults.empty()) {
    fault_plan = parse_fault_plan(opt.faults);
    algo_options.faults = &fault_plan;
    std::printf("faults: %s\n", to_replay_string(fault_plan).c_str());
  }

  Rng rng(opt.seed);
  const CooMatrix ratings =
      synthetic_ratings(opt.users, opt.items, opt.d, rng);
  std::printf("serve: %lld users x %lld items, %lld ratings, rank %lld, "
              "%s p = %d c = %d, batch width %lld\n",
              static_cast<long long>(opt.users),
              static_cast<long long>(opt.items),
              static_cast<long long>(ratings.nnz()),
              static_cast<long long>(opt.r), opt.algo.c_str(), opt.p,
              opt.c, static_cast<long long>(opt.batch_width));

  AlsServerConfig config;
  config.train.rank = opt.r;
  config.train.kind = parse_algo(opt.algo);
  config.train.p = opt.p;
  config.train.c = opt.c;
  config.train.lambda = 0.05;
  config.train.cg_iterations = 4;
  config.train.sweeps = 2;
  config.train.seed = opt.seed;
  config.exec = algo_options;
  config.batch_width = opt.batch_width;
  config.reshard_threshold = opt.reshard_threshold;

  Timer timer;
  AlsServer server(ratings, config);
  std::printf("trained: loss %.1f -> %.1f in %.2fs; resident plan built, "
              "world of %d ranks up\n",
              server.loss_history().front(), server.loss_history().back(),
              timer.seconds(), server.p());

  std::vector<Index> who(static_cast<std::size_t>(opt.requests));
  for (auto& u : who) u = rng.next_index(0, opt.users);
  const auto recommendations =
      server.top_k({who.data(), who.size()}, opt.top_k);
  const Scalar rmse_cold = server.observed_rmse();
  const Scalar rmse_warm = server.observed_rmse();

  const ServeReport& report = server.report();
  std::printf("served %d requests in %d batched passes (%d plans built, "
              "setup builds during serving: %d)\n",
              report.requests, report.batches, report.plan_builds,
              report.setup_builds);
  std::printf("cache: %llu hit(s), %llu miss(es); load imbalance %.2f; "
              "%d reshard(s)\n",
              static_cast<unsigned long long>(report.cache_hits),
              static_cast<unsigned long long>(report.cache_misses),
              report.last_imbalance, report.reshards);
  if (report.degraded) {
    std::printf("degraded: rank %d lost for good; re-planned from p = %d "
                "onto p = %d surviving ranks\n",
                report.degraded_rank, report.degraded_from,
                report.degraded_to);
  }
  std::printf("rmse over observed ratings: %.4f (cold) / %.4f (warm "
              "cache)\n",
              rmse_cold, rmse_warm);

  const Index sample = who.front();
  std::printf("user %lld:", static_cast<long long>(sample));
  for (const auto& rec : recommendations.front()) {
    std::printf(" item %lld (%.3f)", static_cast<long long>(rec.item),
                rec.score);
  }
  std::printf("\n");

  // Batched-equals-unbatched spot check: the same user through a fresh
  // one-request batch and through the narrow unbatched path must agree.
  const auto batched = server.top_k({&sample, 1}, opt.top_k);
  const auto narrow = server.top_k_one(sample, opt.top_k);
  bool ok = batched.front().size() == narrow.size();
  if (ok) {
    for (std::size_t i = 0; i < narrow.size(); ++i) {
      const auto& x = batched.front()[i];
      const auto& y = narrow[i];
      if (x.item != y.item || std::abs(x.score - y.score) > 1e-9) {
        ok = false;
        break;
      }
    }
  }
  std::printf("verification batched vs unbatched top-k: %s\n",
              ok ? "[OK]" : "[FAIL]");
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  AlgorithmOptions algo_options = validate_common(opt);
  if (opt.serve) {
    try {
      return serve_main(opt, algo_options);
    } catch (const Error& e) {
      std::fprintf(stderr, "dsk_cli: error: %s\n", e.what());
      return 1;
    }
  }
  const AlgorithmKind kind = parse_algo(opt.algo);
  const Elision elision = parse_elision(opt.elision);
  const bool fused = opt.op == "fusedmm-a" || opt.op == "fusedmm-b";
  const auto orientation =
      opt.op == "fusedmm-b" ? FusedOrientation::B : FusedOrientation::A;
  const Mode mode = fused ? Mode::SpMMA : parse_mode(opt.op);
  const std::string why = fused
                              ? unsupported_reason(kind, orientation, elision)
                              : unsupported_reason(kind, mode);
  if (!why.empty()) usage_and_exit(why.c_str());

  try {
    FaultPlan fault_plan;
    if (!opt.faults.empty()) {
      fault_plan = parse_fault_plan(opt.faults);
      algo_options.faults = &fault_plan;
      std::printf("faults: %s\n", to_replay_string(fault_plan).c_str());
    }
    Rng rng(opt.seed);
    CooMatrix s(0, 0);
    if (!opt.matrix_path.empty()) {
      std::printf("loading %s\n", opt.matrix_path.c_str());
      auto loaded = read_matrix_market_file(opt.matrix_path);
      // Random permutation for load balance, as the paper does on input.
      s = random_permute(loaded, rng).matrix;
    } else if (opt.use_rmat) {
      s = rmat(opt.n, opt.n, opt.n * opt.d, rng);
    } else {
      s = erdos_renyi_fixed_row(opt.n, opt.n, opt.d, rng);
    }

    DenseMatrix a(s.rows(), opt.r), b(s.cols(), opt.r);
    a.fill_random(rng);
    b.fill_random(rng);

    auto padded = pad_problem(kind, opt.p, opt.c, s, a, b);
    std::printf("problem: %lld x %lld, nnz %lld, r %lld (padded to "
                "%lld x %lld), phi = %.4f\n",
                static_cast<long long>(s.rows()),
                static_cast<long long>(s.cols()),
                static_cast<long long>(s.nnz()),
                static_cast<long long>(opt.r),
                static_cast<long long>(padded.s.rows()),
                static_cast<long long>(padded.s.cols()),
                phi_ratio(s, opt.r));
    std::printf("config: %s, %s, p = %d, c = %d, replication = %s, "
                "propagation = %s, schedule = %s\n",
                opt.algo.c_str(), opt.op.c_str(), opt.p, opt.c,
                to_string(algo_options.replication).c_str(),
                to_string(algo_options.propagation).c_str(),
                opt.schedule.c_str());
    const WireCodec& wire = algo_options.codec;
    if (!wire.is_default()) {
      std::printf("wire: precision = %s\n",
                  to_string(wire.precision).c_str());
    }

    Timer timer;
    const Plan plan = make_plan(kind, opt.p, opt.c, padded.s, padded.a.cols(),
                                algo_options);
    WorldStats stats;
    double max_err = -1;
    // Max absolute error relative to the reference's norm (at least 1).
    const auto rel_err = [](const DenseMatrix& got,
                            const DenseMatrix& want) {
      return got.max_abs_diff(want) /
             std::max<Scalar>(want.frobenius_norm(), 1.0);
    };

    if (fused) {
      auto result = plan.execute_fusedmm(orientation, elision, padded.s,
                                         padded.a, padded.b, opt.reps);
      stats = std::move(result.stats);
      if (opt.verify) {
        max_err = rel_err(
            result.output,
            orientation == FusedOrientation::A
                ? reference_fusedmm_a(padded.s, padded.a, padded.b)
                : reference_fusedmm_b(padded.s, padded.a, padded.b));
      }
    } else {
      auto result = plan.execute(mode, padded.s, padded.a, padded.b);
      stats = std::move(result.stats);
      if (opt.verify && mode == Mode::SpMMA) {
        max_err = rel_err(result.dense, reference_spmm_a(padded.s, padded.b));
      } else if (opt.verify && mode == Mode::SpMMB) {
        max_err = rel_err(result.dense, reference_spmm_b(padded.s, padded.a));
      } else if (opt.verify) {
        // SDDMM values in S's entry order, compared as one column.
        const auto expected = reference_sddmm(padded.s, padded.a, padded.b);
        const Index nnz = expected.nnz();
        max_err = rel_err(DenseMatrix(nnz, 1, result.sddmm_values),
                          DenseMatrix(nnz, 1, expected.values()));
      }
    }
    const double wall = timer.seconds();

    const auto machine = MachineModel::cori_knl();
    std::printf("\n%-24s %14s %14s %12s\n", "phase", "words (max)",
                "messages", "modeled");
    for (const Phase phase :
         {Phase::Replication, Phase::Propagation, Phase::Computation}) {
      std::printf("%-24s %14llu %14llu %10.4fms\n",
                  to_string(phase).c_str(),
                  static_cast<unsigned long long>(stats.max_words(phase)),
                  static_cast<unsigned long long>(stats.max_messages(phase)),
                  1e3 * stats.modeled_phase_seconds(phase, machine));
    }
    std::printf("%-24s %43.4fms\n", "total (modeled)",
                1e3 * stats.modeled_kernel_seconds(machine));
    std::printf("%-24s %43.4fms\n", "overlap bound (modeled)",
                1e3 * stats.modeled_overlap_seconds(machine));
    if (!opt.faults.empty()) {
      const RetryCounters retry = stats.total_retry();
      std::printf("\nfault tolerance: timeouts %llu, nacks %llu, "
                  "retransmits %llu (%llu words), dup dropped %llu, "
                  "corrupt dropped %llu, reordered %llu\n",
                  static_cast<unsigned long long>(retry.timeouts),
                  static_cast<unsigned long long>(retry.nacks),
                  static_cast<unsigned long long>(retry.retransmits),
                  static_cast<unsigned long long>(retry.retry_words),
                  static_cast<unsigned long long>(retry.duplicates_dropped),
                  static_cast<unsigned long long>(retry.corrupt_dropped),
                  static_cast<unsigned long long>(retry.reordered));
      std::printf("recoveries: %d rank crash(es) repaired (replicas or "
                  "checkpoint restore)\n", stats.recoveries());
      if (stats.degraded()) {
        std::printf("degraded: rank %d lost for good; re-planned from "
                    "p = %d onto p = %d surviving ranks\n",
                    stats.degraded_rank(), stats.degraded_from(),
                    stats.degraded_to());
      }
    }
    std::printf("\nhost wall time: %.3fs (simulation, not performance)\n",
                wall);
    // NaN-safe: a NaN error (max_abs_diff reports one for any NaN in
    // the output) must print [FAIL], never skip the line or pass.
    if (!(max_err == -1)) {
      // Lossy wire precisions cannot hit the exact-arithmetic bound; the
      // tolerances track the value mantissas (f32 ~ 2^-24, bf16 ~ 2^-8)
      // with headroom for error accumulation across hops and reductions.
      const double tol =
          wire.precision == WirePrecision::Full  ? 1e-9
          : wire.precision == WirePrecision::F32 ? 1e-4
                                                              : 5e-2;
      std::printf("verification vs serial reference: max rel err %.2e %s\n",
                  max_err, max_err < tol ? "[OK]" : "[FAIL]");
      if (!(max_err < tol)) return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "dsk_cli: error: %s\n", e.what());
    return 1;
  }
}
