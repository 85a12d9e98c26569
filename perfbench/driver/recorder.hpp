// Timing and span recording for one benchmark pass.
//
// Every call the benchmark makes into the engine's public API goes through
// a Recorder. An untraced pass times only the decisions (the end-to-end
// latency samples); a traced pass also keeps one span per call, grouped
// under the driver step that issued it, and totals wall time per call
// kind. Spans stay in memory until the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The public engine calls the benchmark wraps, named "<layer>.<call>".
enum class Call : std::size_t {
  queue_submit,
  queue_schedule,
  queue_next_event,
  queue_advance,
  traverser_match,
  traverser_cancel,
  hier_submit,
  hier_schedule,
  hier_next_event,
  hier_advance,
  count,
};
inline constexpr std::size_t kCallCount = static_cast<std::size_t>(Call::count);
inline constexpr std::array<const char*, kCallCount> kCallNames = {
    "queue.submit",     "queue.schedule",   "queue.next_event",
    "queue.advance",    "traverser.match",  "traverser.cancel",
    "hier.submit",      "hier.schedule",    "hier.next_event",
    "hier.advance",
};

/// One traced call. `step` is the id of the driver step (the closed
/// loop's handling of one event) that issued it; a step span itself has
/// `call == Call::count` and `step` equal to its own id.
struct Span {
  Call call = Call::count;
  std::int64_t step = -1;
  std::int64_t start_ns = 0;  // relative to the start of the timed phase
  std::int64_t end_ns = 0;
};

class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}

  bool traced() const noexcept { return traced_; }

  /// Marks the start of the timed phase; span times count from here.
  void start() { origin_ = Clock::now(); }

  /// Opens the next driver step; calls until end_step() are its children.
  void begin_step() {
    if (!traced_) return;
    ++step_;
    step_start_ = Clock::now();
  }
  void end_step() {
    if (!traced_) return;
    spans_.push_back({Call::count, step_, ns(step_start_), ns(Clock::now())});
  }

  /// Runs `f` as one call into the engine; a traced pass keeps its span.
  template <class F>
  void call(Call c, F&& f) {
    if (!traced_) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    close(c, t0, Clock::now());
  }

  /// As call(), but always timed: returns the call's wall time in µs.
  template <class F>
  double timed_call(Call c, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    if (traced_) close(c, t0, t1);
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  }

  /// Records one decision's latency sample.
  void decision(double us) { decisions_.push_back(us); }

  const std::vector<double>& decisions() const noexcept { return decisions_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Total wall µs spent in each call kind (traced passes only).
  const std::array<double, kCallCount>& call_us() const noexcept {
    return call_us_;
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  void close(Call c, Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back({c, step_, ns(t0), ns(t1)});
    call_us_[static_cast<std::size_t>(c)] +=
        std::chrono::duration<double, std::micro>(t1 - t0).count();
  }

  bool traced_;
  Clock::time_point origin_ = Clock::now();
  Clock::time_point step_start_ = origin_;
  std::int64_t step_ = -1;
  std::vector<Span> spans_;
  std::vector<double> decisions_;
  std::array<double, kCallCount> call_us_{};
};

}  // namespace perfbench
