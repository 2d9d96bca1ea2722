// Shared helpers of the touch-to-answer benchmark: clocks, percentiles,
// resident-set sampling and the span recorder of traced runs.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sleeps until `deadline_ns` (steady clock): coarse sleep, then a short
/// yield loop so paced sends land within a few microseconds of their slot.
void SleepUntilNs(std::int64_t deadline_ns);

/// Lowers this thread's timer slack so short sleeps are not rounded up by
/// the default 50 us slack (affects only the calling thread).
void TightenTimerSlack();

/// p-th ranked value (p in [0, 1]) of `v`; reorders `v`. 0 when empty.
double Percentile(std::vector<double>& v, double p);

/// Current resident set size of this process in bytes (/proc/self/statm).
std::int64_t CurrentRssBytes();

/// Machine-wide CPU time counters from /proc/stat (clock ticks): the
/// steal column is time this VM's vCPUs were runnable but the host ran
/// something else. Zeros where the file is unreadable.
struct CpuTicks {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// One timed call from the benchmark's own code into a layer of the
/// program. Spans of one gesture share `session` and `gesture`; `parent`
/// names the enclosing span (0 = none).
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t session = -1;
  std::int64_t gesture = -1;
};

/// In-memory span store of a traced run; written out once at exit. Off
/// (untraced runs) every call is a single branch.
class SpanRecorder {
 public:
  /// `session_stride`: spans tagged with a session are kept for every
  /// stride-th session only, so a flood's dump stays bounded.
  explicit SpanRecorder(bool enabled, int session_stride = 1)
      : enabled_(enabled), session_stride_(session_stride) {}

  bool enabled() const { return enabled_; }
  /// True when spans of `session` are recorded.
  bool Samples(std::int64_t session) const {
    return enabled_ && (session < 0 || session % session_stride_ == 0);
  }

  /// Reserves a span id (so children can name their parent before the
  /// parent's end is known).
  std::int64_t NextId();

  void Record(const Span& span);

  /// Durations (us) of every recorded span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_;
  int session_stride_;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span: times its scope when the recorder is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t parent = 0,
             std::int64_t session = -1, std::int64_t gesture = -1)
      : rec_(rec), on_(rec.Samples(session)) {
    if (on_) {
      span_.id = rec_.NextId();
      span_.parent = parent;
      span_.name = name;
      span_.session = session;
      span_.gesture = gesture;
      span_.start_ns = NowNs();
    }
  }
  ~ScopedSpan() {
    if (on_) {
      span_.end_ns = NowNs();
      rec_.Record(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  SpanRecorder& rec_;
  bool on_;
  Span span_;
};

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string ToJson() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
