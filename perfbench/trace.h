// In-memory span recorder for the traced benchmark run.
//
// Each span holds a name, start, end, the span that caused it (the
// enclosing span on the same thread, or an explicit parent) and a request
// id. Spans stay in memory and are written once, at exit, together with a
// per-name summary of count, total time, self time (duration minus the part
// covered by child spans) and median duration.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::int64_t kNone = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNone;
    std::int64_t request = kNone;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span whose parent is the innermost open span of this thread.
  std::int64_t begin(const char* name, std::int64_t request = kNone) {
    if (!enabled_) return kNone;
    const std::int64_t start = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, 0, open_, request});
    open_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return open_;
  }

  void end(std::int64_t id) {
    if (id == kNone) return;
    const std::int64_t stop = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = stop;
    open_ = span.parent;
  }

  // A span measured elsewhere (e.g. a wire request, from due time to
  // response), attached to `parent`.
  void record(const char* name, std::int64_t start, std::int64_t stop,
              std::int64_t parent, std::int64_t request) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, stop, parent, request});
  }

  struct Summary {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double p50_ms = 0.0;
  };

  std::map<std::string, Summary> summarize() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNone) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      Summary& s = out[span.name];
      ++s.count;
      s.total_ms += ms;
      s.self_ms += ms - static_cast<double>(child_ns[i]) / 1e6;
      durations[span.name].push_back(ms);
    }
    for (auto& [name, values] : durations) {
      std::sort(values.begin(), values.end());
      out[name].p50_ms = values[(values.size() - 1) / 2];
    }
    return out;
  }

  // Writes every span and the per-name summary as one JSON document.
  // Times are nanoseconds relative to the first span.
  bool write(const std::string& path) const {
    const std::map<std::string, Summary> summary = summarize();
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) return false;
    std::int64_t origin = 0;
    if (!spans_.empty()) {
      origin = std::min_element(spans_.begin(), spans_.end(),
                                [](const Span& a, const Span& b) {
                                  return a.start_ns < b.start_ns;
                                })
                   ->start_ns;
    }
    out << "{\"summary\": {";
    bool first = true;
    for (const auto& [name, s] : summary) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
          << s.count << ", \"total_ms\": " << s.total_ms
          << ", \"self_ms\": " << s.self_ms << ", \"p50_ms\": " << s.p50_ms
          << "}";
      first = false;
    }
    out << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
          << span.name << "\", \"start_ns\": " << span.start_ns - origin
          << ", \"end_ns\": " << span.end_ns - origin
          << ", \"parent\": " << span.parent
          << ", \"request\": " << span.request << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  // Innermost open span. The benchmark opens nested spans from one thread
  // at a time (worker threads record through `record` only).
  std::int64_t open_ = kNone;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name,
             std::int64_t request = Tracer::kNone)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
