// dsk_lint fixture: the blessed version of every checked pattern in
// one file. Must produce zero findings — if a linter change turns this
// red, the change is over-matching.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <vector>

using Index = long;
using MessageWords = std::vector<std::uint64_t>;

enum class Phase { Computation };
struct RankStats {};
struct PhaseScope {
  PhaseScope(RankStats&, Phase) {}
};
struct Mailbox {
  std::optional<MessageWords> receive_for(int, int,
                                          std::chrono::milliseconds);
};

// D1 clean: copy the unordered contents out, sort, THEN let them
// escape — one canonical order everywhere.
std::vector<Index> sampled_columns(const std::unordered_set<Index>& seen) {
  std::vector<Index> out;
  out.assign(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

// D1 clean with annotation: membership counting never exposes order.
std::size_t distinct_count(const std::unordered_set<Index>& seen) {
  std::size_t n = 0;
  // dsk-lint: allow(D1) order-insensitive count, nothing escapes
  for (const Index column : seen) {
    n += column >= 0 ? 1 : 0;
  }
  return n;
}

// W1 clean: named scope; timed receive under a bounded attempt cap.
MessageWords compute_step(RankStats& stats, Mailbox& box) {
  PhaseScope scope(stats, Phase::Computation);
  const int max_attempts = 8;
  for (int attempts = 0; attempts < max_attempts; ++attempts) {
    auto msg = box.receive_for(0, 7, std::chrono::milliseconds(10));
    if (msg) return *msg;
  }
  throw std::runtime_error("gave up after bounded retries");
}
