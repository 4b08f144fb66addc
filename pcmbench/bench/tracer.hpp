// Benchmark-side tracing: host-time spans recorded around every call the
// benchmark makes into a layer's public functions, and a counting
// simulator observer.
//
// Spans live in memory (name, start, end, parent, call id) and are written
// once, at exit, as Chrome trace-event JSON — the format Perfetto opens,
// like the obs recorder's traces.  A layer is the span name's prefix up to
// the first '.', so "lint.tree" belongs to layer "lint"; a layer's self
// time is its spans' durations minus the parts their child spans cover.
//
// Tracing is off in the timed end-to-end runs: a null Tracer* makes every
// ScopedSpan a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/observer.hpp"

namespace pcmbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string "layer.operation"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  std::int64_t call = -1;  ///< top-level call the span belongs to

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char* name);
  void close(int index);

  /// Tags spans opened from now on with top-level call `call`.
  void set_call(std::int64_t call) { call_ = call; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace-event "X" (complete) event on
  /// one track, timestamps in microseconds from the first span.  Returns
  /// false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t call_ = -1;
};

/// RAII span; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Host time of one layer over a set of spans.
struct LayerTime {
  std::string layer;
  long long spans = 0;
  std::int64_t self_ns = 0;  ///< span durations minus the time child spans cover
};

/// Per-layer span counts and self times, in first-appearance order.
std::vector<LayerTime> layer_times(std::span<const Span> spans);

/// Counts the simulator observer callbacks the per-layer metrics use.
/// fast_forward_cycles sums the clock jumps on_fast_forward reports
/// (cycles never evaluated one by one).
class CountingObserver final : public pcm::sim::SimObserver {
 public:
  struct Counts {
    long long reserves = 0;
    long long blocked = 0;
    long long fast_forward_cycles = 0;
  };

  void on_reserve(int, int, pcm::sim::MsgId, pcm::Time) override { ++c_.reserves; }
  void on_release(int, int, pcm::sim::MsgId, pcm::Time) override {}
  void on_blocked(int, int, pcm::sim::MsgId, pcm::Time) override { ++c_.blocked; }
  void on_fast_forward(pcm::Time from, pcm::Time to) override {
    c_.fast_forward_cycles += to - from;
  }

  [[nodiscard]] const Counts& counts() const { return c_; }

 private:
  Counts c_;
};

}  // namespace pcmbench
