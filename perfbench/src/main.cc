// perfbench_driver: the touch-to-answer benchmark of dbTouch.
//
//   perfbench_driver --workload <wire_paced|mem_flood|disk_paced>
//                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench_driver --selftest [--out <dir>]
//
// Generates the workload's table and exploration logs from the seed, sets
// the program up, drives it only through its public entry points, checks
// every answer against the generator formula, and prints one JSON result
// line last on stdout. --trace 0 prints the end-to-end metrics; --trace 1
// is a separate run that times the calls into each layer from outside and
// prints the per-layer metrics. Diagnostics go to stderr.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cache/file_block_provider.h"
#include "core/kernel.h"
#include "core/result_stream.h"
#include "data.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "exec/span_kernels.h"
#include "gateway/gateway.h"
#include "gateway/wire.h"
#include "server/touch_server.h"
#include "storage/spill.h"
#include "util.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dbtouch::server::TouchServer;

const std::int64_t g_main_start_ns = NowNs();

constexpr double kMiB = 1024.0 * 1024.0;

/// Server shedding slack on every workload: far past the 2 s answer limit,
/// so a touch a stalled host makes late runs late instead of being shed. A
/// shed move never counts in touch_events, so it would fail its gesture on
/// noisy runs only, and the failed share would follow the host rather than
/// the program. The flood measures capacity, so it must execute every
/// released touch anyway.
constexpr std::int64_t kDropSlackUs = 10'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = "perfbench/out";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      o->selftest = true;
    } else if ((a == "--workload" && (v = next()))) {
      o->workload = v;
    } else if (a == "--seed" && (v = next())) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      o->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--out" && (v = next())) {
      o->out_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", a.c_str());
      return false;
    }
  }
  return o->selftest || (!o->workload.empty() && o->seconds > 0);
}

/// Counters sampled before the first touch and after the drain.
struct Counters {
  dbtouch::server::ServerStatsSnapshot server;
  dbtouch::gateway::GatewayStatsSnapshot gateway;
};

/// Everything one run measured, end-to-end and per layer.
struct RunResult {
  bool ok = false;           // set-up and drive completed
  std::string error;
  double setup_s = 0;
  DriverStats driver;        // merged across threads
  Checker checker{nullptr};
  RunWindow window;
  double touches_per_s = 0;
  double peak_rss_mb = 0;
  double steal_share = 0;
  Counters before;
  Counters after;
  // Set-up phase timings (per-layer).
  double hierarchy_build_s = 0;
  double zone_map_build_s = 0;
  double spill_s = 0;
  double file_bytes_per_user_byte = 0;
  std::string pax_path;
  double sample_mb = 0;
  double claim_rate = 0;
  std::int64_t rows_scanned = 0;
  std::int64_t rows_pruned = 0;
  std::int64_t touch_events = 0;
  // Post-run layer probes (traced runs only).
  std::vector<double> core_touch_us;
  double aggregate_ns_per_row = 0;
  double filter_ns_per_row = 0;
  double block_read_us = 0;
  double codec_ns_per_event = 0;
};

/// The timed phase is cut into equal windows of about one slide/slide/tap
/// cycle (3 slots), so every window holds the same gesture mix. The touch
/// rate is the median of the per-window rates; each latency figure is the
/// lower quartile of the per-window percentiles. Host interference only
/// ever adds latency, and on a shared machine it comes and goes over
/// seconds, so the less disturbed windows carry the program's own cost,
/// while a slower program raises every window alike.
constexpr double kWindowSlots = 3.0;

int NumWindows(const RunWindow& w) {
  const double secs = (w.measure_end_ns - w.measure_start_ns) / 1e9;
  return std::max(1, static_cast<int>(std::lround(
                         secs / (kWindowSlots * kSlotSeconds))));
}

std::int64_t WindowOf(const RunWindow& w, std::int64_t t_ns) {
  const int n = NumWindows(w);
  const std::int64_t len = (w.measure_end_ns - w.measure_start_ns) / n;
  return std::clamp<std::int64_t>((t_ns - w.measure_start_ns) / len, 0, n - 1);
}

/// Lower quartile over windows of the p-th percentile of each window's
/// samples.
double WindowedPercentile(const RunWindow& w,
                          const std::vector<std::pair<std::int64_t, double>>& s,
                          double p) {
  std::vector<std::vector<double>> by_window(
      static_cast<std::size_t>(NumWindows(w)));
  for (const auto& [t, v] : s) {
    by_window[static_cast<std::size_t>(WindowOf(w, t))].push_back(v);
  }
  std::vector<double> per;
  for (auto& v : by_window) {
    if (!v.empty()) per.push_back(Percentile(v, p));
  }
  return Percentile(per, 0.25);
}

/// Samples RSS, and the executed counter at every window boundary.
class Monitor {
 public:
  Monitor(TouchServer& server, const RunWindow& w) : server_(server), w_(w) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Monitor() { Stop(); }
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Median over windows of touches executed per second.
  double touches_per_s() const {
    std::vector<double> rates;
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      const double secs = (marks_[i].first - marks_[i - 1].first) / 1e9;
      if (secs > 0) {
        rates.push_back(
            static_cast<double>(marks_[i].second - marks_[i - 1].second) /
            secs);
      }
    }
    return Percentile(rates, 0.5);
  }
  double peak_rss_mb() const { return peak_rss_ / kMiB; }
  /// Share of the machine's CPU time the host stole during the timed phase.
  double steal_share() const {
    const std::int64_t total = ticks_end_.total - ticks_start_.total;
    return total > 0 ? static_cast<double>(ticks_end_.steal -
                                           ticks_start_.steal) /
                           static_cast<double>(total)
                     : 0.0;
  }

 private:
  std::int64_t Executed() {
    auto s = server_.Call(api::StatsReq{});
    return s.ok() ? s->executed : 0;
  }
  void Loop() {
    const int n = NumWindows(w_);
    const std::int64_t len = (w_.measure_end_ns - w_.measure_start_ns) / n;
    SleepUntilNs(w_.measure_start_ns);
    ticks_start_ = ReadCpuTicks();
    marks_.emplace_back(NowNs(), Executed());
    for (int i = 1; i <= n && !stop_.load(); ++i) {
      const std::int64_t boundary = w_.measure_start_ns + i * len;
      while (!stop_.load() && NowNs() + 20'000'000 < boundary) {
        peak_rss_ = std::max(peak_rss_, CurrentRssBytes());
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      SleepUntilNs(boundary);
      marks_.emplace_back(NowNs(), Executed());
    }
    peak_rss_ = std::max(peak_rss_, CurrentRssBytes());
    ticks_end_ = ReadCpuTicks();
  }

  TouchServer& server_;
  RunWindow w_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<std::int64_t, std::int64_t>> marks_;
  std::int64_t peak_rss_ = 0;
  CpuTicks ticks_start_;
  CpuTicks ticks_end_;
  std::thread thread_;
};

Counters Sample(TouchServer& server, dbtouch::gateway::Gateway* gw) {
  Counters c;
  c.server = server.stats();
  if (gw != nullptr) c.gateway = gw->stats();
  return c;
}

/// Standalone kernel replay of the run's first scripts: times
/// Kernel::OnTouch per touch over the server's own shared state.
void ReplayKernel(const WorkloadSpec& spec, std::uint64_t seed,
                  TouchServer& server, const std::vector<SessionPlan>& plans,
                  const dbtouch::server::TouchServerConfig& config,
                  SpanRecorder& spans, RunResult* out) {
  // Non-owning alias: the server outlives this replay.
  std::shared_ptr<dbtouch::core::SharedState> shared(
      std::shared_ptr<dbtouch::core::SharedState>{}, &server.shared());
  dbtouch::core::KernelConfig kc = config.session_defaults;
  kc.rotation_trigger_rad = 1e9;
  const std::size_t n = std::min<std::size_t>(plans.size(), 6);
  for (std::size_t i = 0; i < n; ++i) {
    dbtouch::core::Kernel kernel(kc, shared);
    bool ok = true;
    for (std::size_t o = 0; o < plans[i].objects.size() && ok; ++o) {
      const ObjectPlan& op = plans[i].objects[o];
      const api::WireRect& f = plans[i].frames[o];
      const dbtouch::touch::RectCm frame{f.x, f.y, f.width, f.height};
      auto id = op.table ? kernel.CreateTableObject("t", frame)
                         : kernel.CreateColumnObject(
                               "t", kColNames[op.column], frame);
      ok = id.ok() && kernel.SetAction(*id, ToActionConfig(op.action)).ok();
    }
    if (!ok) continue;
    for (std::int64_t k = 0; k < 12; ++k) {
      const Gesture g = MakeGesture(spec, seed, plans[i], k);
      for (const auto& e : g.events) {
        ScopedSpan span(spans, "core.on_touch", 0, plans[i].index, k);
        const std::int64_t t = NowNs();
        kernel.OnTouch(e);
        out->core_touch_us.push_back((NowNs() - t) / 1e3);
      }
    }
  }
}

/// Times the span kernels over copies of the workload's own blocks.
void TimeSpanKernels(TouchServer& server, SpanRecorder& spans,
                     RunResult* out) {
  auto source = server.shared().GetColumnSource("t", kClu);
  if (!source.ok()) return;
  std::vector<std::int64_t> data;
  const std::int64_t blocks = std::min<std::int64_t>((*source)->num_blocks(), 64);
  for (std::int64_t b = 0; b < blocks; ++b) {
    auto pin = (*source)->PinBlock(b);
    if (!pin.ok()) return;
    const auto& view = pin->view();
    for (std::int64_t r = 0; r < view.row_count(); ++r) {
      data.push_back(static_cast<std::int64_t>(view.GetAsDouble(r)));
    }
  }
  const dbtouch::storage::ColumnView view(
      dbtouch::storage::DataType::kInt64,
      reinterpret_cast<const std::byte*>(data.data()), sizeof(std::int64_t),
      static_cast<std::int64_t>(data.size()));
  const dbtouch::exec::Predicate pred(200'000.0, 299'999.0);
  constexpr int kReps = 20;
  double sink = 0;
  {
    ScopedSpan span(spans, "exec.aggregate_span");
    const std::int64_t t = NowNs();
    for (int i = 0; i < kReps; ++i) {
      dbtouch::exec::RunningAggregate agg(dbtouch::exec::AggKind::kSum);
      dbtouch::exec::AggregateSpan(view, &agg);
      sink += agg.value();
    }
    out->aggregate_ns_per_row =
        static_cast<double>(NowNs() - t) / (kReps * data.size());
  }
  {
    ScopedSpan span(spans, "exec.filter_span");
    const std::int64_t t = NowNs();
    for (int i = 0; i < kReps; ++i) {
      std::int64_t passed = 0;
      dbtouch::exec::FilterSpan(view, pred, 0, nullptr, &passed);
      sink += static_cast<double>(passed);
    }
    out->filter_ns_per_row =
        static_cast<double>(NowNs() - t) / (kReps * data.size());
  }
  if (sink == -1.0) std::fprintf(stderr, "unreachable\n");
}

/// Times single-block reads straight from the run's spill file.
void TimeBlockReads(const std::string& path, std::uint64_t seed,
                    SpanRecorder& spans, RunResult* out) {
  auto provider = dbtouch::cache::FileBlockProvider::Open(path);
  if (!provider.ok()) return;
  const std::int64_t blocks = (*provider)->geometry().num_blocks();
  if (blocks <= 0) return;
  std::uint64_t x = seed | 1;
  constexpr int kReads = 64;
  std::int64_t total = 0;
  for (int i = 0; i < kReads; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto b = static_cast<std::int64_t>((x >> 33) %
                                             static_cast<std::uint64_t>(blocks));
    ScopedSpan span(spans, "storage.fetch");
    const std::int64_t t = NowNs();
    auto bytes = (*provider)->Fetch(b);
    total += NowNs() - t;
    if (!bytes.ok()) return;
  }
  out->block_read_us = total / 1e3 / kReads;
}

/// Encode + decode of a sample of the run's own request frames.
double TimeCodec(const std::vector<SessionPlan>& plans) {
  std::vector<api::SubmitBatchReq> reqs;
  std::int64_t events = 0;
  for (const SessionPlan& p : plans) {
    for (const Gesture& g : p.gestures) {
      for (const auto& e : g.events) {
        api::SubmitBatchReq req;
        req.session = p.id;
        req.events.push_back(api::ToWire(e));
        reqs.push_back(std::move(req));
        ++events;
      }
      if (reqs.size() >= 4096) break;
    }
    if (reqs.size() >= 4096) break;
  }
  if (events == 0) return 0;
  constexpr int kReps = 20;
  std::int64_t sink = 0;
  const std::int64_t t = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (const auto& req : reqs) {
      const std::string frame = dbtouch::gateway::EncodeRequestFrame(
          dbtouch::gateway::MessageType::kSubmitBatch, 1, req);
      auto header = dbtouch::gateway::DecodeHeader(frame);
      dbtouch::gateway::WireReader r(std::string_view(frame).substr(
          dbtouch::gateway::kFrameHeaderBytes));
      api::SubmitBatchReq back;
      if (header.ok() && dbtouch::gateway::Decode(r, &back).ok()) {
        sink += static_cast<std::int64_t>(back.events.size());
      }
    }
  }
  const double ns = static_cast<double>(NowNs() - t);
  return sink > 0 ? ns / static_cast<double>(sink) : 0.0;
}

RunResult RunWorkload(const WorkloadSpec& spec, const Options& opt,
                      SpanRecorder& spans, std::vector<SessionPlan>* plans_out,
                      bool capture_checker = false) {
  RunResult res;
  const DataGen gen(opt.seed, spec.rows);
  res.checker = Checker(&gen);

  // ---- Inputs (not part of set-up time) ----------------------------------
  const std::int64_t gen_start = NowNs();
  auto table = gen.MakeTable("t");
  std::vector<SessionPlan> plans(static_cast<std::size_t>(spec.sessions));
  for (int s = 0; s < spec.sessions; ++s) {
    SessionPlan& p = plans[static_cast<std::size_t>(s)];
    p.index = s;
    PlanObjects(spec, &p);
    p.origin_offset_ns = static_cast<std::int64_t>(
        kSlotSeconds * 1e9 * s / spec.sessions);
    if (spec.paced) {
      const auto slots = static_cast<std::int64_t>(
          (spec.warmup_s + opt.seconds) / kSlotSeconds) + 2;
      for (std::int64_t k = 0; k < slots; ++k) {
        p.gestures.push_back(MakeGesture(spec, opt.seed, p, k));
      }
    }
  }
  const std::int64_t gen_ns = NowNs() - gen_start;
  if (table == nullptr) {
    res.error = "table generation failed";
    return res;
  }

  // ---- Program set-up ------------------------------------------------------
  dbtouch::server::TouchServerConfig config;
  config.num_workers = spec.workers;
  config.drop_slack_us = kDropSlackUs;
  config.session_defaults.buffer.budget_bytes = spec.pool_bytes;
  config.session_defaults.buffer.rows_per_block = spec.rows_per_block;
  // Declared before the server, so the spill files go only after the
  // server (and its open provider) is gone, on every return path.
  struct SpillDir {
    std::string path;
    ~SpillDir() {
      std::error_code ec;
      if (!path.empty()) fs::remove_all(path, ec);
    }
  } spill;
  auto server = std::make_unique<TouchServer>(config);
  {
    ScopedSpan span(spans, "setup.register");
    if (!server->RegisterTable(table).ok()) {
      res.error = "register failed";
      return res;
    }
  }
  {
    ScopedSpan span(spans, "setup.hierarchy");
    const std::int64_t t = NowNs();
    for (int c = 0; c < kNumCols; ++c) {
      if (!server->shared().GetOrBuildHierarchy("t", c).ok()) {
        res.error = "hierarchy build failed";
        return res;
      }
    }
    res.hierarchy_build_s = (NowNs() - t) / 1e9;
  }
  if (spec.spill) {
    ScopedSpan span(spans, "setup.spill");
    spill.path = opt.out_dir + "/spill-" + std::to_string(::getpid());
    std::error_code ec;
    fs::create_directories(spill.path, ec);
    dbtouch::storage::SpillOptions so;
    so.rows_per_block = spec.rows_per_block;
    dbtouch::storage::TableSpiller spiller(spill.path, so);
    const std::int64_t t = NowNs();
    const auto st = server->shared().SpillTablePax("t", spiller,
                                                   /*reclaim_raw=*/true);
    res.spill_s = (NowNs() - t) / 1e9;
    if (!st.ok()) {
      res.error = "spill failed: " + st.ToString();
      return res;
    }
    const double user_bytes = static_cast<double>(spec.rows * kNumCols * 8);
    res.pax_path = spiller.PaxPathFor("t");
    res.file_bytes_per_user_byte =
        static_cast<double>(fs::file_size(res.pax_path, ec)) / user_bytes;
  }
  table.reset();
  {
    ScopedSpan span(spans, "setup.zone_map");
    const std::int64_t t = NowNs();
    auto h = server->shared().GetOrBuildHierarchy("t", kClu);
    if (!h.ok() || server->shared().GetOrBuildBaseZoneMap(*h) == nullptr) {
      res.error = "zone map build failed";
      return res;
    }
    res.zone_map_build_s = (NowNs() - t) / 1e9;
  }
  std::unique_ptr<dbtouch::gateway::Gateway> gateway;
  std::vector<std::unique_ptr<Port>> ports;
  {
    ScopedSpan span(spans, "setup.start");
    if (!server->Start().ok()) {
      res.error = "server start failed";
      return res;
    }
    if (spec.wire) {
      dbtouch::gateway::GatewayConfig gc;
      gc.num_loops = 2;
      gateway = std::make_unique<dbtouch::gateway::Gateway>(*server, gc);
      if (!gateway->Start().ok()) {
        res.error = "gateway start failed";
        return res;
      }
    }
    for (int t = 0; t < spec.threads; ++t) {
      if (spec.wire) {
        dbtouch::gateway::Client client;
        const auto st = client.Connect("127.0.0.1", gateway->port());
        if (!st.ok()) {
          res.error = "connect failed: " + st.ToString();
          return res;
        }
        ports.push_back(std::make_unique<WirePort>(std::move(client)));
      } else {
        ports.push_back(std::make_unique<LocalPort>(*server));
      }
    }
  }
  {
    ScopedSpan span(spans, "setup.sessions");
    for (SessionPlan& p : plans) {
      const auto st = OpenPlannedSession(
          *ports[static_cast<std::size_t>(p.index % spec.threads)], &p);
      if (!st.ok()) {
        res.error = "session set-up failed: " + st.ToString();
        return res;
      }
    }
  }
  const std::int64_t ready = NowNs();
  res.setup_s = (ready - g_main_start_ns - gen_ns) / 1e9;
  res.sample_mb = static_cast<double>(server->shared().sample_bytes()) / kMiB;

  // ---- Timed phase -----------------------------------------------------------
  res.before = Sample(*server, gateway.get());
  RunWindow window;
  window.epoch_ns = NowNs() + 20'000'000;
  window.measure_start_ns =
      window.epoch_ns + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  window.measure_end_ns =
      window.measure_start_ns + static_cast<std::int64_t>(opt.seconds * 1e9);
  res.window = window;
  std::vector<DriverStats> stats(static_cast<std::size_t>(spec.threads));
  std::vector<Checker> checkers(static_cast<std::size_t>(spec.threads),
                                Checker(&gen));
  for (Checker& c : checkers) c.set_capture(capture_checker);
  {
    Monitor monitor(*server, window);
    std::vector<std::thread> threads;
    for (int t = 0; t < spec.threads; ++t) {
      std::vector<SessionPlan*> mine;
      for (SessionPlan& p : plans) {
        if (p.index % spec.threads == t) mine.push_back(&p);
      }
      threads.emplace_back([&, t, mine] {
        const auto ti = static_cast<std::size_t>(t);
        if (spec.paced) {
          RunPaced(*ports[ti], mine, window, spans, checkers[ti], &stats[ti]);
        } else {
          RunFlood(spec, opt.seed, *ports[ti], mine, window, spans,
                   checkers[ti], &stats[ti]);
        }
      });
    }
    for (auto& th : threads) th.join();
    monitor.Stop();
    res.touches_per_s = monitor.touches_per_s();
    res.peak_rss_mb = monitor.peak_rss_mb();
    res.steal_share = monitor.steal_share();
  }
  (void)server->Drain();
  res.after = Sample(*server, gateway.get());

  for (std::size_t t = 0; t < stats.size(); ++t) {
    DriverStats& d = stats[t];
    res.driver.attempted += d.attempted;
    res.driver.failed += d.failed;
    res.driver.accepted += d.accepted;
    res.driver.answers.insert(res.driver.answers.end(), d.answers.begin(),
                              d.answers.end());
    res.driver.tap_answer_us.insert(res.driver.tap_answer_us.end(),
                                    d.tap_answer_us.begin(),
                                    d.tap_answer_us.end());
    res.driver.send_lag_us.insert(res.driver.send_lag_us.end(),
                                  d.send_lag_us.begin(), d.send_lag_us.end());
    if (res.driver.first_error.empty()) res.driver.first_error = d.first_error;
    res.checker.Merge(checkers[t]);
  }
  // ---- Totals from independent paths ----------------------------------------
  const auto& b = res.before.server;
  const auto& a = res.after.server;
  const std::int64_t served =
      (a.executed - b.executed) + (a.dropped_quanta - b.dropped_quanta);
  if (served != res.driver.accepted) {
    res.checker.Fail("client accepted " + std::to_string(res.driver.accepted) +
                     " touches, server executed+dropped " +
                     std::to_string(served));
  }
  {
    LocalPort local(*server);
    for (const SessionPlan& p : plans) {
      api::SessionSnapshotReq req;
      req.session = p.id;
      auto snap = local.Snapshot(req);
      if (!snap.ok()) {
        res.checker.Fail("final snapshot failed");
        continue;
      }
      res.rows_scanned += snap->rows_scanned;
      res.rows_pruned += snap->rows_pruned;
      res.touch_events += snap->touch_events;
      const auto it = a.per_session.find(p.id);
      const std::int64_t dropped =
          it == a.per_session.end() ? 0 : it->second.dropped_quanta;
      if (snap->touch_events + dropped != p.accepted) {
        res.checker.Fail("session " + std::to_string(p.index) +
                         " took in " + std::to_string(snap->touch_events) +
                         " touches (+" + std::to_string(dropped) +
                         " shed) of " + std::to_string(p.accepted) +
                         " accepted");
      }
    }
  }
  if (a.buffer.peak_resident_bytes > a.buffer.budget_bytes) {
    res.checker.Fail("pool peak residency " +
                     std::to_string(a.buffer.peak_resident_bytes) +
                     " over budget " + std::to_string(a.buffer.budget_bytes));
  }
  res.claim_rate = server->shared().buffer_manager().prefetch_claim_rate();

  // ---- Layer probes (traced runs) ---------------------------------------------
  if (opt.trace) {
    ReplayKernel(spec, opt.seed, *server, plans, config, spans, &res);
    TimeSpanKernels(*server, spans, &res);
    if (spec.spill) {
      TimeBlockReads(res.pax_path, opt.seed, spans, &res);
    }
    if (spec.wire) res.codec_ns_per_event = TimeCodec(plans);
  }

  if (gateway != nullptr) (void)gateway->Stop();
  ports.clear();
  (void)server->Stop();
  server.reset();
  if (plans_out != nullptr) *plans_out = std::move(plans);
  res.ok = true;
  return res;
}

double Pct(std::vector<double> v, double p) { return Percentile(v, p); }

double PerTouch(double num, std::int64_t touches) {
  return touches > 0 ? num / static_cast<double>(touches) : 0.0;
}

void PrintResult(const RunResult& r, const MetricSet& m) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.checker.failures() == 0 ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(
                  r.driver.attempted, 1)),
              static_cast<long long>(r.driver.failed), m.ToJson().c_str());
  std::fflush(stdout);
}

int RunMain(const Options& opt) {
  WorkloadSpec spec;
  if (!FindWorkload(opt.workload, &spec) || opt.workload == "selftest") {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);
  SpanRecorder spans(opt.trace, spec.span_session_stride);
  std::vector<SessionPlan> plans;
  RunResult r = RunWorkload(spec, opt, spans, &plans);
  if (!r.ok) {
    std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
    return 1;
  }
  std::vector<double> lat;
  for (const auto& a : r.driver.answers) lat.push_back(a.second);
  const double p50 = WindowedPercentile(r.window, r.driver.answers, 0.50);
  const double p95 = WindowedPercentile(r.window, r.driver.answers, 0.95);
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trace=%d samples=%zu p50=%.1fus "
               "p95=%.1fus p99=%.1fus max=%.1fus touches/s=%.1f rss=%.1fMB "
               "setup=%.3fs host_steal=%.3f checked=%lld failures=%lld "
               "attempted=%lld failed=%lld%s%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? 1 : 0, lat.size(), p50, p95, Pct(lat, 0.99),
               Pct(lat, 1.0), r.touches_per_s, r.peak_rss_mb, r.setup_s,
               r.steal_share,
               static_cast<long long>(r.checker.checked()),
               static_cast<long long>(r.checker.failures()),
               static_cast<long long>(r.driver.attempted),
               static_cast<long long>(r.driver.failed),
               r.checker.failures() ? " first_failure=" : "",
               r.checker.first_failure().c_str());
  std::vector<double> taps = r.driver.tap_answer_us;
  std::fprintf(stderr,
               "perfbench: taps=%zu tap_p50=%.1fus tap_p95=%.1fus "
               "send_lag_p95=%.1fus\n",
               taps.size(), Pct(taps, 0.5), Pct(taps, 0.95),
               Pct(r.driver.send_lag_us, 0.95));
  if (!r.driver.first_error.empty()) {
    std::fprintf(stderr, "perfbench: first operation error: %s\n",
                 r.driver.first_error.c_str());
  }

  MetricSet m;
  if (!opt.trace) {
    m.Add("setup_s", r.setup_s, "s");
    m.Add("answer_p50_us", p50, "us");
    m.Add("answer_p95_us", p95, "us");
    m.Add("touches_per_s", r.touches_per_s, "touches/s");
    m.Add("rss_mb", r.peak_rss_mb, "MB");
    PrintResult(r, m);
    return 0;
  }

  const std::string trace_path = opt.out_dir + "/trace-" + spec.name + "-" +
                                 std::to_string(opt.seed) + ".jsonl";
  if (!spans.WriteJsonLines(trace_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 trace_path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans -> %s\n", spans.size(),
                 trace_path.c_str());
  }
  const auto& b = r.before.server;
  const auto& a = r.after.server;
  const std::int64_t touches = a.executed - b.executed;
  std::vector<double> submit = spans.DurationsUs("submit");
  std::vector<double> snapshot = spans.DurationsUs("snapshot");
  const double submit_mean =
      submit.empty() ? 0.0
                     : std::accumulate(submit.begin(), submit.end(), 0.0) /
                           static_cast<double>(submit.size());
  const auto& ga = r.after.gateway;
  const auto& gb = r.before.gateway;
  m.Add("gateway.submit_rtt_p50_us", spec.wire ? Pct(submit, 0.5) : 0.0, "us");
  m.Add("gateway.snapshot_rtt_p50_us", spec.wire ? Pct(snapshot, 0.5) : 0.0,
        "us");
  m.Add("gateway.bytes_per_touch",
        PerTouch(static_cast<double>((ga.bytes_received - gb.bytes_received) +
                                     (ga.bytes_sent - gb.bytes_sent)),
                 touches),
        "B/touch");
  m.Add("gateway.codec_ns_per_event", r.codec_ns_per_event, "ns/event");
  m.Add("server.admit_us_per_batch", spec.wire ? 0.0 : submit_mean, "us");
  m.Add("server.queue_wait_p50_us",
        static_cast<double>(a.stages.queue_wait.Percentile(0.50)), "us");
  m.Add("server.queue_wait_p95_us",
        static_cast<double>(a.stages.queue_wait.Percentile(0.95)), "us");
  m.Add("server.exec_p50_us",
        static_cast<double>(a.stages.exec.Percentile(0.50)), "us");
  m.Add("server.exec_p95_us",
        static_cast<double>(a.stages.exec.Percentile(0.95)), "us");
  m.Add("server.fetch_stall_p95_us",
        static_cast<double>(a.stages.fetch_stall.Percentile(0.95)), "us");
  m.Add("server.e2e_p95_us", static_cast<double>(a.stages.e2e.Percentile(0.95)),
        "us");
  m.Add("server.deadline_misses",
        static_cast<double>(a.deadline_misses - b.deadline_misses), "count");
  m.Add("server.dropped_quanta",
        static_cast<double>(a.dropped_quanta - b.dropped_quanta), "count");
  m.Add("core.touch_p50_us", Pct(r.core_touch_us, 0.50), "us");
  m.Add("core.touch_p95_us", Pct(r.core_touch_us, 0.95), "us");
  m.Add("core.rows_scanned_per_touch",
        PerTouch(static_cast<double>(r.rows_scanned), r.touch_events),
        "rows/touch");
  m.Add("sampling.hierarchy_build_s", r.hierarchy_build_s, "s");
  m.Add("sampling.sample_mb", r.sample_mb, "MB");
  m.Add("sampling.approx_share",
        r.checker.checked() > 0
            ? static_cast<double>(r.checker.approximate()) /
                  static_cast<double>(r.checker.checked())
            : 0.0,
        "ratio");
  m.Add("exec.aggregate_ns_per_row", r.aggregate_ns_per_row, "ns/row");
  m.Add("exec.filter_ns_per_row", r.filter_ns_per_row, "ns/row");
  const double pruned = static_cast<double>(r.rows_pruned);
  m.Add("index.pruned_share",
        pruned + r.rows_scanned > 0 ? pruned / (pruned + r.rows_scanned) : 0.0,
        "ratio");
  m.Add("index.zone_map_build_s", r.zone_map_build_s, "s");
  const std::int64_t lookups = a.buffer.lookups - b.buffer.lookups;
  m.Add("cache.hit_rate",
        lookups > 0 ? static_cast<double>(a.buffer.hits - b.buffer.hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio");
  m.Add("cache.faults_per_touch",
        PerTouch(static_cast<double>(a.buffer.faulted_blocks -
                                     b.buffer.faulted_blocks),
                 touches),
        "blocks/touch");
  m.Add("cache.evictions_per_touch",
        PerTouch(static_cast<double>(a.buffer.evictions - b.buffer.evictions),
                 touches),
        "blocks/touch");
  m.Add("cache.fetch_ewma_us", static_cast<double>(a.fetch.ewma_block_fetch_us),
        "us");
  m.Add("cache.mb_fetched_per_touch",
        PerTouch(static_cast<double>(a.fetch.bytes_fetched -
                                     b.fetch.bytes_fetched) /
                     kMiB,
                 touches),
        "MB/touch");
  m.Add("cache.suspended_share",
        PerTouch(static_cast<double>(a.fetch.suspended_quanta -
                                     b.fetch.suspended_quanta),
                 touches),
        "ratio");
  m.Add("cache.peak_resident_mb",
        static_cast<double>(a.buffer.peak_resident_bytes) / kMiB, "MB");
  m.Add("prefetch.claim_rate", r.claim_rate, "ratio");
  m.Add("prefetch.blocks_per_touch",
        PerTouch(static_cast<double>(a.fetch.prefetch_fetches -
                                     b.fetch.prefetch_fetches),
                 touches),
        "blocks/touch");
  m.Add("storage.spill_s", r.spill_s, "s");
  m.Add("storage.file_bytes_per_user_byte", r.file_bytes_per_user_byte,
        "ratio");
  m.Add("storage.block_read_us", r.block_read_us, "us");
  m.Add("client.send_lag_p95_us", Pct(r.driver.send_lag_us, 0.95), "us");
  m.Add("client.traced_answer_p50_us", p50, "us");
  PrintResult(r, m);
  return 0;
}

/// Runs a tiny in-process workload, then shows that the checker rejects
/// deliberately altered copies of the results it accepted.
int RunSelfTest(const Options& base) {
  WorkloadSpec spec;
  FindWorkload("selftest", &spec);
  Options opt = base;
  opt.workload = spec.name;
  opt.seed = 7;
  opt.seconds = 1.0;
  opt.trace = false;
  std::error_code ec;
  fs::create_directories(opt.out_dir, ec);
  SpanRecorder spans(false);
  RunResult r = RunWorkload(spec, opt, spans, nullptr,
                            /*capture_checker=*/true);
  if (!r.ok || r.checker.failures() != 0 || r.checker.checked() == 0 ||
      r.driver.attempted == 0 || r.driver.failed != 0) {
    std::fprintf(stderr,
                 "selftest: unaltered run not clean (ok=%d checked=%lld "
                 "failures=%lld attempted=%lld failed=%lld) %s %s\n",
                 r.ok ? 1 : 0, static_cast<long long>(r.checker.checked()),
                 static_cast<long long>(r.checker.failures()),
                 static_cast<long long>(r.driver.attempted),
                 static_cast<long long>(r.driver.failed), r.error.c_str(),
                 r.checker.first_failure().c_str());
    return 1;
  }
  const DataGen gen(opt.seed, spec.rows);
  using dbtouch::core::ResultKind;
  std::map<int, int> altered;
  std::map<int, int> rejected;
  const auto try_alter = [&](const Checker::CapturedRun& run, std::size_t i,
                             int label, const auto& mutate) {
    auto items = run.items;
    if (!mutate(run.objects.at(items[i].object), items[i])) return;
    Checker c(&gen);
    c.CheckRun(run.objects, items);
    ++altered[label];
    if (c.failures() > 0) ++rejected[label];
  };
  for (const auto& run : r.checker.captured()) {
    for (std::size_t i = 0; i < run.items.size(); ++i) {
      if (!run.objects.count(run.items[i].object)) continue;
      const int kind = run.items[i].kind;
      if (kind == static_cast<int>(ResultKind::kGroupUpdate)) {
        // A group max below the touched tuple's own value.
        try_alter(run, i, kind, [&](const ObjectPlan&, api::ResultInfo& x) {
          x.value = static_cast<double>(gen.Value(kAmt, x.row)) - 1;
          return true;
        });
        continue;
      }
      // Off by one in the value.
      try_alter(run, i, kind, [](const ObjectPlan&, api::ResultInfo& x) {
        x.value += 1;
        return true;
      });
      if (kind == static_cast<int>(ResultKind::kFilterMatch)) {
        // A real cell of the column that fails the predicate.
        try_alter(run, i, 100,
                  [&](const ObjectPlan& plan, api::ResultInfo& x) {
                    for (std::int64_t row = 0; row < gen.rows(); row += 997) {
                      const auto v =
                          static_cast<double>(gen.Value(plan.column, row));
                      if (v < plan.action.predicate_lo ||
                          v > plan.action.predicate_hi) {
                        x.row = row;
                        x.value = v;
                        return true;
                      }
                    }
                    return false;
                  });
      }
      if (kind == static_cast<int>(ResultKind::kSummary)) {
        // A real cell on the wrong side of the touched row.
        try_alter(run, i, 101, [&](const ObjectPlan& plan,
                                   api::ResultInfo& x) {
          const bool is_min = plan.action.agg ==
                              static_cast<std::uint8_t>(
                                  dbtouch::exec::AggKind::kMin);
          const std::int64_t row =
              is_min ? std::min(gen.rows() - 1, x.row + 1)
                     : std::max<std::int64_t>(0, x.row - 65536 - 1);
          if (row == x.row || (!is_min && x.row - 65536 - 1 < 0)) return false;
          x.value = static_cast<double>(gen.Value(kOrd, row));
          return true;
        });
      }
    }
  }
  bool pass = !altered.empty();
  for (const auto& [label, n] : altered) {
    std::fprintf(stderr, "selftest: alteration %d: %d of %d rejected\n",
                 label, rejected[label], n);
    pass = pass && rejected[label] == n;
  }
  for (const ResultKind k : {ResultKind::kValue, ResultKind::kTuple,
                             ResultKind::kFilterMatch, ResultKind::kSummary}) {
    if (altered.count(static_cast<int>(k)) == 0) {
      std::fprintf(stderr, "selftest: no %s result was exercised\n",
                   dbtouch::core::ResultKindName(k));
      pass = false;
    }
  }
  std::printf("{\"selftest\": \"%s\", \"checked\": %lld}\n",
              pass ? "pass" : "fail",
              static_cast<long long>(r.checker.checked()));
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --selftest\n");
    return 2;
  }
  if (opt.selftest) return perfbench::RunSelfTest(opt);
  return perfbench::RunMain(opt);
}
