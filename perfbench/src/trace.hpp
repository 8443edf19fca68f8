#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced run. Spans are
/// recorded around the benchmark's own calls into each module's public
/// functions (apps, dist, runtime, local); nothing inside the library is
/// instrumented. A span has a name, a layer (the module it measures), a
/// start, an end and a parent. Derived spans carry durations the program
/// itself measured (per-phase seconds from WorldStats) and are placed
/// inside the real span of the call that reported them. Everything stays
/// in memory until write_chrome() exports the Chrome trace-event JSON.

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  bool derived = false;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double now_us() const;

  /// Open a span as a child of the innermost open span; returns its id,
  /// or -1 when tracing is off (then nothing is recorded).
  int begin(const std::string& name, const std::string& layer);
  void end(int id);

  /// Record a span with known bounds under `parent`.
  int add(const std::string& name, const std::string& layer, double start_us,
          double end_us, int parent, bool derived);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the part covered by direct children),
  /// summed per layer over the subtrees of every root span named
  /// `root_name`. Also returns the roots' total duration.
  std::map<std::string, double> self_us_by_layer(const std::string& root_name,
                                                 double* root_total_us) const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events;
  /// the span id and parent id ride in args).
  void write_chrome(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer), id_(tracer.begin(name, layer)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

} // namespace perfbench
