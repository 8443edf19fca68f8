#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_us();
  const int id = add(name, layer, t, t, parent, false);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(const std::string& name, const std::string& layer,
                double start_us, double end_us, int parent, bool derived) {
  if (!enabled_) return -1;
  spans_.push_back({name, layer, start_us, end_us, parent, derived});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_us_by_layer(
    const std::string& root_name, double* root_total_us) const {
  // Spans are appended parents-first, so one reverse pass can subtract
  // each span's duration from its parent's self time and find its root.
  std::vector<double> self(spans_.size());
  std::vector<int> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_us();
    const int parent = spans_[i].parent;
    root[i] = parent < 0 ? static_cast<int>(i)
                         : root[static_cast<std::size_t>(parent)];
  }
  for (std::size_t i = spans_.size(); i-- > 0;) {
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -= spans_[i].duration_us();
    }
  }
  std::map<std::string, double> out;
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& r = spans_[static_cast<std::size_t>(root[i])];
    if (r.name != root_name) continue;
    out[spans_[i].layer] += self[i];
    if (root[i] == static_cast<int>(i)) total += spans_[i].duration_us();
  }
  if (root_total_us != nullptr) *root_total_us = total;
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

} // namespace

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"derived\":%s}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(),
                 json_escape(s.layer).c_str(), s.start_us, s.duration_us(), i,
                 s.parent, s.derived ? "true" : "false");
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot finish trace " + path);
  }
}

} // namespace perfbench
