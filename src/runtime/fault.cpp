#include "runtime/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace dsk {

namespace {

/// Phase names accepted in crash triggers and printed in replay strings.
const char* phase_token(Phase phase) {
  switch (phase) {
    case Phase::Replication: return "repl";
    case Phase::Propagation: return "prop";
    case Phase::Computation: return "comp";
    case Phase::Application: return "app";
    case Phase::Other: return "other";
  }
  return "other";
}

bool parse_phase_token(const std::string& token, Phase& out) {
  for (int i = 0; i < kNumPhases; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (token == phase_token(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

FaultKind parse_kind(const std::string& token) {
  if (token == "drop") return FaultKind::Drop;
  if (token == "dup") return FaultKind::Duplicate;
  if (token == "corrupt") return FaultKind::Corrupt;
  if (token == "delay") return FaultKind::Delay;
  fail("fault spec: unknown message fault kind '", token,
       "' (want drop|dup|corrupt|delay)");
}

const char* kind_token(FaultKind kind) {
  switch (kind) {
    case FaultKind::Drop: return "drop";
    case FaultKind::Duplicate: return "dup";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Delay: return "delay";
  }
  return "drop";
}

/// The whole token as a decimal T in [lo, T's max]: trailing garbage,
/// signs and out-of-range values are errors, never clamped or narrowed.
template <typename T>
T parse_int(const std::string& text, const char* what, T lo) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  check(ec == std::errc() && stop == end && value >= lo, "fault spec: ",
        what, " '", text, "' is not an integer in [", lo, ", ",
        std::numeric_limits<T>::max(), "]");
  return value;
}

double parse_rate(const std::string& text, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  check(end != nullptr && *end == '\0' && !text.empty() && value >= 0 &&
            value <= 1,
        "fault spec: ", what, " must be a rate in [0, 1], got '", text, "'");
  return value;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// crash=<rank>@step:<s> | crash=<rank>@{repl|prop|comp|app|other|any}:<n>
CrashSpec parse_crash(const std::string& text) {
  const std::size_t at = text.find('@');
  check(at != std::string::npos, "fault spec: crash trigger '", text,
        "' needs <rank>@<where>:<n>");
  CrashSpec spec;
  spec.rank = parse_int(text.substr(0, at), "crash rank", 0);
  const std::string where = text.substr(at + 1);
  const std::size_t colon = where.find(':');
  check(colon != std::string::npos, "fault spec: crash trigger '", text,
        "' needs <rank>@<where>:<n>");
  const std::string kind = where.substr(0, colon);
  const int n = parse_int(where.substr(colon + 1), "crash trigger index", 0);
  if (kind == "step") {
    spec.step = n;
  } else if (kind == "any") {
    spec.any_phase = true;
    spec.op_index = n;
  } else {
    check(parse_phase_token(kind, spec.phase),
          "fault spec: unknown crash trigger '", kind,
          "' (want step|any|repl|prop|comp|app|other)");
    spec.any_phase = false;
    spec.op_index = n;
  }
  return spec;
}

/// msg=<kind>:<src>-><dst>:<tag>:<seq>
MessageFaultSpec parse_message(const std::string& text) {
  const auto parts = split(text, ':');
  check(parts.size() == 4, "fault spec: message fault '", text,
        "' needs <kind>:<src>-><dst>:<tag>:<seq>");
  MessageFaultSpec spec;
  spec.kind = parse_kind(parts[0]);
  const std::size_t arrow = parts[1].find("->");
  check(arrow != std::string::npos, "fault spec: message fault '", text,
        "' needs <src>-><dst>");
  spec.source = parse_int(parts[1].substr(0, arrow), "source", 0);
  spec.dest = parse_int(parts[1].substr(arrow + 2), "dest", 0);
  spec.tag = parse_int(parts[2], "tag", 0);
  spec.seq = parse_int(parts[3], "sequence number", std::uint64_t{0});
  return spec;
}

/// Shortest decimal that round-trips the rate through strtod — the
/// replay-string pin parse(to_replay_string(p)) == p needs exact rates,
/// which ostream's default 6-digit precision does not give.
std::string rate_string(double rate) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), rate);
  check(ec == std::errc(), "fault spec: unprintable rate");
  return {buf, end};
}

} // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  // Scalar keys may appear at most once — a repeated key in a replay
  // string is always a transcription error, not an intent.
  bool seen[7] = {};
  const auto once = [&](int slot, const char* key) {
    check(!seen[slot], "fault spec: duplicate key '", key, "'");
    seen[slot] = true;
  };
  for (const std::string& field : split(spec, ',')) {
    check(!field.empty(),
          "fault spec: empty field (trailing or doubled comma?)");
    const std::size_t eq = field.find('=');
    check(eq != std::string::npos, "fault spec: field '", field,
          "' is not key=value");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "seed") {
      once(0, "seed");
      plan.seed = parse_int(value, "seed", std::uint64_t{0});
    } else if (key == "drop") {
      once(1, "drop");
      plan.drop_rate = parse_rate(value, "drop");
    } else if (key == "dup") {
      once(2, "dup");
      plan.dup_rate = parse_rate(value, "dup");
    } else if (key == "corrupt") {
      once(3, "corrupt");
      plan.corrupt_rate = parse_rate(value, "corrupt");
    } else if (key == "delay") {
      once(4, "delay");
      plan.delay_rate = parse_rate(value, "delay");
    } else if (key == "timeout_ms") {
      once(5, "timeout_ms");
      plan.timeout_ms = parse_int(value, "timeout_ms", 1);
    } else if (key == "attempts") {
      once(6, "attempts");
      plan.max_attempts = parse_int(value, "attempts", 1);
    } else if (key == "crash") {
      const CrashSpec crash = parse_crash(value);
      check(std::find(plan.crashes.begin(), plan.crashes.end(), crash) ==
                plan.crashes.end(),
            "fault spec: duplicate crash trigger '", field, "'");
      plan.crashes.push_back(crash);
    } else if (key == "msg") {
      const MessageFaultSpec msg = parse_message(value);
      check(std::find(plan.messages.begin(), plan.messages.end(), msg) ==
                plan.messages.end(),
            "fault spec: duplicate message fault '", field, "'");
      plan.messages.push_back(msg);
    } else {
      fail("fault spec: unknown key '", key, "'");
    }
  }
  return plan;
}

std::string to_replay_string(const FaultPlan& plan) {
  std::ostringstream out;
  out << "seed=" << plan.seed;
  if (plan.drop_rate > 0) out << ",drop=" << rate_string(plan.drop_rate);
  if (plan.dup_rate > 0) out << ",dup=" << rate_string(plan.dup_rate);
  if (plan.corrupt_rate > 0) {
    out << ",corrupt=" << rate_string(plan.corrupt_rate);
  }
  if (plan.delay_rate > 0) out << ",delay=" << rate_string(plan.delay_rate);
  out << ",timeout_ms=" << plan.timeout_ms
      << ",attempts=" << plan.max_attempts;
  for (const auto& c : plan.crashes) {
    out << ",crash=" << c.rank << "@";
    if (c.step >= 0) {
      out << "step:" << c.step;
    } else if (c.any_phase) {
      out << "any:" << c.op_index;
    } else {
      out << phase_token(c.phase) << ":" << c.op_index;
    }
  }
  for (const auto& m : plan.messages) {
    out << ",msg=" << kind_token(m.kind) << ":" << m.source << "->"
        << m.dest << ":" << m.tag << ":" << m.seq;
  }
  return out.str();
}

std::string describe(const CrashInfo& crash) {
  std::ostringstream out;
  out << "rank " << crash.rank << " crashed ";
  if (crash.step >= 0) {
    out << "entering shift step " << crash.step;
  } else {
    out << "at comm operation " << crash.op_index;
  }
  out << " in phase " << phase_token(crash.phase);
  return out.str();
}

FaultInjector::FaultInjector(const FaultPlan& plan, int num_ranks)
    : plan_(plan),
      crash_fired_(plan.crashes.size(), 0),
      phase_ops_(static_cast<std::size_t>(num_ranks) * kNumPhases, 0),
      total_ops_(static_cast<std::size_t>(num_ranks), 0) {
  for (const auto& c : plan_.crashes) {
    check(0 <= c.rank && c.rank < num_ranks,
          "fault plan: crash rank ", c.rank, " outside world of ",
          num_ranks);
  }
}

bool FaultInjector::hits(double rate, int source, int dest, int tag,
                         std::uint64_t seq, std::uint64_t salt) const {
  if (rate <= 0) return false;
  const std::uint64_t key[5] = {
      plan_.seed, salt,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
       << 32) |
          static_cast<std::uint32_t>(dest),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)), seq};
  const std::uint64_t h = fnv1a_words(key, 5);
  // Top 53 bits give a uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

FaultInjector::Decision FaultInjector::on_send(int source, int dest,
                                               int tag,
                                               std::uint64_t seq) const {
  Decision d;
  for (const auto& m : plan_.messages) {
    if (m.source != source || m.dest != dest || m.tag != tag ||
        m.seq != seq) {
      continue;
    }
    switch (m.kind) {
      case FaultKind::Drop: d.drop = true; break;
      case FaultKind::Duplicate: d.duplicate = true; break;
      case FaultKind::Corrupt: d.corrupt = true; break;
      case FaultKind::Delay: d.delay = true; break;
    }
  }
  d.drop = d.drop || hits(plan_.drop_rate, source, dest, tag, seq, 0xd0);
  d.duplicate =
      d.duplicate || hits(plan_.dup_rate, source, dest, tag, seq, 0xd1);
  d.corrupt =
      d.corrupt || hits(plan_.corrupt_rate, source, dest, tag, seq, 0xc0);
  d.delay =
      d.delay || hits(plan_.delay_rate, source, dest, tag, seq, 0xde);
  return d;
}

void FaultInjector::on_comm_op(int rank, Phase phase) {
  const auto r = static_cast<std::size_t>(rank);
  const std::uint64_t in_phase =
      phase_ops_[r * kNumPhases + static_cast<std::size_t>(phase)]++;
  const std::uint64_t total = total_ops_[r]++;
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const auto& c = plan_.crashes[i];
    // Rank check first: crash_fired_[i] is then only ever touched by
    // the spec's own rank thread (attempts are sequenced by join), so
    // the one-shot flag needs no synchronization.
    if (c.rank != rank || crash_fired_[i] != 0 || c.step >= 0) continue;
    const std::uint64_t at = static_cast<std::uint64_t>(c.op_index);
    const bool fire = c.any_phase ? total == at
                                  : (c.phase == phase && in_phase == at);
    if (!fire) continue;
    crash_fired_[i] = 1;
    CrashInfo info;
    info.rank = rank;
    info.phase = phase;
    info.op_index = c.op_index;
    throw RankCrashError(describe(info) + " (injected)", info);
  }
}

void FaultInjector::on_shift_step(int rank, Phase phase, int step) {
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const auto& c = plan_.crashes[i];
    if (c.rank != rank || crash_fired_[i] != 0 || c.step != step) continue;
    crash_fired_[i] = 1;
    CrashInfo info;
    info.rank = rank;
    info.phase = phase;
    info.step = step;
    throw RankCrashError(describe(info) + " (injected)", info);
  }
}

} // namespace dsk
