#include "util.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

void SleepUntilNs(std::int64_t deadline_ns) {
  std::int64_t now = NowNs();
  if (deadline_ns - now > 150'000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - 100'000));
    now = NowNs();
  }
  while (now < deadline_ns) {
    std::this_thread::yield();
    now = NowNs();
  }
}

void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

std::int64_t CurrentRssBytes() {
  std::ifstream in("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  in >> size >> resident;
  return static_cast<std::int64_t>(resident) * ::sysconf(_SC_PAGESIZE);
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    std::int64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::int64_t SpanRecorder::NextId() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\",\"start_ns\":"
                 "%lld,\"end_ns\":%lld,\"session\":%lld,\"gesture\":%lld}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.session),
                 static_cast<long long>(s.gesture));
  }
  return std::fclose(f) == 0;
}

std::string MetricSet::ToJson() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << "\"" << items_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << items_[i].unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
