// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (never inside the library). Each span carries a name,
// start and end on the steady clock, the index of the span that caused it
// and the id of the operation it belongs to. Spans stay in memory until the
// run ends and are then written out as JSON lines.
//
// A disabled recorder (the untraced end-to-end run) records nothing: a Scope
// over it costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 for a root
  std::uint64_t op = 0;      ///< operation id shared by one request/release
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t op) {
    if (!enabled_) return -1;
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t index) {
    if (index < 0) return;
    const std::int64_t now = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now;
  }

  std::uint64_t next_op() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_op_;
  }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"op\": " << s.op << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t last_op_ = 0;  // guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Recorder& recorder, const char* name, std::int64_t parent = -1,
        std::uint64_t op = 0)
      : recorder_(recorder), index_(recorder.open(name, parent, op)) {}
  ~Scope() { recorder_.close(index_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Recorder& recorder_;
  std::int64_t index_;
};

/// Per-span self time in seconds: the span's duration minus its children's.
/// Every parent's children are sequential scopes on one thread, so they
/// never overlap.
inline std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self_ns(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self_ns[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(self_ns[i]) * 1e-9;
  }
  return self;
}

/// Total self time per span name.
inline std::map<std::string, double> self_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    totals[spans[i].name] += self[i];
  }
  return totals;
}

/// Durations in seconds of every span called `name`.
inline std::vector<double> durations(const std::vector<Span>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
