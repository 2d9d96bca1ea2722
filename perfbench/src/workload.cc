#include "workload.h"

#include <algorithm>
#include <queue>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/action.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "sim/motion_profile.h"
#include "sim/touch_device.h"
#include "sim/trace_builder.h"

namespace perfbench {

using dbtouch::Rng;
using dbtouch::Status;
using dbtouch::core::ActionKind;
using dbtouch::exec::AggKind;

namespace {

/// A gesture whose answer is not visible this long after its last touch
/// was due counts as one failed operation.
constexpr std::int64_t kAnswerLimitNs = 2'000'000'000;
/// Paced slides last this long; their length (hence speed) is random.
constexpr double kSlideSeconds = 0.5;
/// Gap kept free at the end of every slot (minimum think time).
constexpr double kMinThinkSeconds = 0.2;

constexpr api::WireRect kColumnFrame{1.0, 1.0, 3.0, 12.0};
constexpr api::WireRect kTableFrame{6.0, 1.0, 12.0, 12.0};

std::uint64_t SeedFor(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  return seed * 0x9e3779b97f4a7c15ull ^
         (static_cast<std::uint64_t>(a) * 0xbf58476d1ce4e5b9ull) ^
         (static_cast<std::uint64_t>(b) * 0x94d049bb133111ebull + 1);
}

api::WireAction ScanAction() {
  api::WireAction a;
  a.kind = static_cast<std::uint8_t>(ActionKind::kScan);
  return a;
}

api::WireAction SummaryAction(AggKind agg) {
  api::WireAction a;
  a.kind = static_cast<std::uint8_t>(ActionKind::kSummary);
  a.agg = static_cast<std::uint8_t>(agg);
  a.summary_k = 32;
  return a;
}

api::WireAction FilterAction(std::int64_t band) {
  // `clu` runs share a 1000-wide band of 1000 possible bands, so this
  // window matches about one run in ten; the zone map prunes the rest.
  api::WireAction a;
  a.kind = static_cast<std::uint8_t>(ActionKind::kFilteredScan);
  a.has_predicate = true;
  a.predicate_op =
      static_cast<std::uint8_t>(dbtouch::exec::CompareOp::kBetween);
  a.predicate_lo = static_cast<double>(band * 100'000);
  a.predicate_hi = static_cast<double>(band * 100'000 + 99'999);
  a.use_zone_map = true;
  return a;
}

api::WireAction GroupByAction() {
  api::WireAction a;
  a.kind = static_cast<std::uint8_t>(ActionKind::kGroupBy);
  a.agg = static_cast<std::uint8_t>(AggKind::kMax);
  a.group_key_attribute = kGrp;
  a.group_value_attribute = kAmt;
  return a;
}

ObjectPlan ColumnObject(int column, api::WireAction action) {
  ObjectPlan p;
  p.column = column;
  p.action = action;
  return p;
}

ObjectPlan TableObject() {
  ObjectPlan p;
  p.table = true;
  p.action = GroupByAction();
  return p;
}

/// The three column-object actions, rotated across sessions.
ObjectPlan MixedColumnObject(int index) {
  switch (index % 3) {
    case 0:
      return ColumnObject(kClu, ScanAction());
    case 1:
      return ColumnObject(
          kOrd, SummaryAction((index / 3) % 2 == 0 ? AggKind::kMin
                                                   : AggKind::kMax));
    default:
      return ColumnObject(kClu, FilterAction((index / 3) % 10));
  }
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "wire_paced") {
    s.wire = true;
    s.paced = true;
    s.rows = 1'000'000;
    s.pool_bytes = 64ll << 20;
    s.sessions = 256;
    s.threads = 4;
    s.workers = 4;
    s.warmup_s = 3.0;
  } else if (name == "mem_flood") {
    s.paced = false;
    s.rows = 2'000'000;
    s.pool_bytes = 128ll << 20;
    s.sessions = 64;
    s.threads = 2;
    s.workers = 4;
    s.warmup_s = 1.0;
    s.span_session_stride = 8;
  } else if (name == "disk_paced") {
    s.paced = true;
    s.spill = true;
    s.rows = 2'000'000;
    s.pool_bytes = 8ll << 20;
    s.rows_per_block = 4'096;
    s.sessions = 128;
    s.threads = 2;
    s.workers = 4;
    s.warmup_s = 3.0;
    s.span_session_stride = 4;
  } else if (name == "selftest") {
    s.paced = false;
    s.rows = 50'000;
    s.pool_bytes = 64ll << 20;
    s.sessions = 4;
    s.threads = 1;
    s.workers = 2;
    s.warmup_s = 0.2;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

void PlanObjects(const WorkloadSpec& spec, SessionPlan* plan) {
  plan->objects.clear();
  plan->frames.clear();
  const int i = plan->index;
  if (spec.wire) {
    plan->objects.push_back(MixedColumnObject(i));
    plan->frames.push_back(kColumnFrame);
    return;
  }
  if (spec.spill) {
    plan->objects.push_back(MixedColumnObject(i));
  } else {
    // Capacity mix: summaries and zone-map filtered scans beside group-bys.
    plan->objects.push_back(
        i % 2 == 0 ? ColumnObject(kOrd, SummaryAction((i / 2) % 2 == 0
                                                          ? AggKind::kMin
                                                          : AggKind::kMax))
                   : ColumnObject(kClu, FilterAction((i / 2) % 10)));
  }
  plan->frames.push_back(kColumnFrame);
  plan->objects.push_back(TableObject());
  plan->frames.push_back(kTableFrame);
}

Gesture MakeGesture(const WorkloadSpec& spec, std::uint64_t seed,
                    const SessionPlan& plan, std::int64_t k) {
  static const dbtouch::sim::TouchDevice device;
  const dbtouch::sim::TraceBuilder builder(device);
  Rng rng(SeedFor(seed, plan.index, k));
  Gesture g;
  // Fixed pattern slide, slide, tap: the offered touch rate is the same
  // for every seed, only positions, lengths and directions vary.
  const int pattern = static_cast<int>(k % 3);
  const bool has_table = plan.objects.size() > 1;
  g.tap = pattern == 2;
  // Taps: fat-table taps on disk_paced, alternating column and table taps
  // elsewhere.
  const bool table_tap = g.tap && (spec.spill || (k / 3) % 2 == 1);
  g.object = has_table && (pattern == 1 || table_tap) ? 1 : 0;
  const api::WireRect& f = plan.frames[static_cast<std::size_t>(g.object)];
  // disk_paced: even sessions re-study a hot band (8% of the rows, 5 MB,
  // which fits the 8 MiB pool), odd ones sweep the whole table cold.
  const bool hot = spec.spill && plan.index % 2 == 0;
  const double lo = hot ? 0.46 : 0.02;
  const double hi = hot ? 0.54 : 0.98;
  const double slot_start = static_cast<double>(k) * kSlotSeconds;
  const double jitter =
      rng.NextDouble(0.0, kSlotSeconds - kSlideSeconds - kMinThinkSeconds);
  const auto start_us =
      static_cast<dbtouch::sim::Micros>((slot_start + jitter) * 1e6);
  const double x = f.x + f.width * rng.NextDouble(0.2, 0.8);
  if (g.tap) {
    const double y = f.y + f.height * rng.NextDouble(lo, hi);
    g.events = builder.Tap("tap", {x, y}, 0.05, start_us).events;
    g.expected_results = plan.objects[static_cast<std::size_t>(g.object)].table
                             ? kNumCols
                             : 1;
    return g;
  }
  const double span = hi - lo;
  const double len = rng.NextDouble(0.3 * span, span);
  double y0 = f.y + f.height * (lo + rng.NextDouble(0.0, span - len));
  double y1 = y0 + f.height * len;
  if (rng.NextBernoulli(0.5)) std::swap(y0, y1);
  g.events = builder
                 .Slide("slide", {x, y0}, {x, y1},
                        dbtouch::sim::MotionProfile::Constant(kSlideSeconds),
                        start_us)
                 .events;
  return g;
}

Status OpenPlannedSession(Port& port, SessionPlan* plan) {
  auto open = port.Open();
  if (!open.ok()) return open.status();
  plan->id = open->session;
  plan->by_id.clear();
  for (std::size_t i = 0; i < plan->objects.size(); ++i) {
    const ObjectPlan& o = plan->objects[i];
    api::CreateObjectReq create;
    create.session = plan->id;
    create.kind = o.table ? 1 : 0;
    create.table = "t";
    create.column = o.table ? "" : kColNames[o.column];
    create.frame = plan->frames[i];
    auto object = port.Create(create);
    if (!object.ok()) return object.status();
    api::SetActionReq set;
    set.session = plan->id;
    set.object = object->object;
    set.action = o.action;
    auto action = port.SetAction(set);
    if (!action.ok()) return action.status();
    plan->by_id[object->object] = o;
  }
  return Status::OK();
}

dbtouch::core::ActionConfig ToActionConfig(const api::WireAction& a) {
  dbtouch::core::ActionConfig c;
  c.kind = static_cast<ActionKind>(a.kind);
  c.agg = static_cast<AggKind>(a.agg);
  c.summary_k = a.summary_k;
  if (a.has_predicate) {
    c.predicate = dbtouch::exec::Predicate(a.predicate_lo, a.predicate_hi);
  }
  c.use_zone_map = a.use_zone_map;
  c.group_key_attribute = a.group_key_attribute;
  c.group_value_attribute = a.group_value_attribute;
  return c;
}

namespace {

/// Reads the results `plan`'s session appended since `*results_seen` and
/// checks them. The session is idle (its gesture answered, the next not
/// sent), so the tail is exactly the new run.
void CheckNewResults(Port& port, SessionPlan& plan, std::int64_t result_count,
                     std::int64_t* results_seen, SpanRecorder& spans,
                     std::int64_t parent, std::int64_t gesture,
                     Checker& checker) {
  const std::int64_t fresh = result_count - *results_seen;
  if (fresh <= 0) return;
  ScopedSpan span(spans, "check", parent, plan.index, gesture);
  api::SessionSnapshotReq req;
  req.session = plan.id;
  req.max_results = std::min<std::int64_t>(fresh, 4096);
  auto snap = port.Snapshot(req);
  if (!snap.ok()) {
    checker.Fail("result fetch failed: " + snap.status().ToString());
    return;
  }
  if (snap->result_count == result_count && fresh <= 4096) {
    checker.CheckRun(plan.by_id, snap->results);
  } else {
    checker.Fail("session " + std::to_string(plan.index) +
                 " appended results while idle");
  }
  *results_seen = snap->result_count;
}

/// Gap before re-polling a gesture that has waited `waited_ns` since its
/// last touch was due: tight while the answer is in the sub-millisecond
/// range the percentiles resolve, looser once it is already late.
std::int64_t PollGapNs(std::int64_t waited_ns) {
  if (waited_ns < 2'000'000) return 10'000;
  if (waited_ns < 20'000'000) return 50'000;
  return 500'000;
}

std::int64_t DueNs(const SessionPlan& plan, const RunWindow& w,
                   const dbtouch::sim::TouchEvent& e) {
  return w.epoch_ns + plan.origin_offset_ns + e.timestamp_us * 1000;
}

}  // namespace

void RunPaced(Port& port, std::vector<SessionPlan*> sessions,
              const RunWindow& window, SpanRecorder& spans, Checker& checker,
              DriverStats* out) {
  TightenTimerSlack();
  struct State {
    std::size_t g = 0;
    std::size_t e = 0;
    std::int64_t sent = 0;
    std::int64_t results_seen = 0;
    bool measured = false;
    bool failed = false;
    std::int64_t first_due_ns = 0;
    std::int64_t answer_due_ns = 0;
    std::int64_t target = 0;
    std::int64_t gesture_span = 0;
  };
  enum Kind { kSend, kPoll };
  struct Item {
    std::int64_t at_ns;
    std::size_t s;
    Kind kind;
    bool operator>(const Item& o) const { return at_ns > o.at_ns; }
  };
  std::vector<State> st(sessions.size());
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  const auto schedule_gesture = [&](std::size_t s) {
    const SessionPlan& p = *sessions[s];
    State& x = st[s];
    if (x.g >= p.gestures.size()) return;
    const std::int64_t due = DueNs(p, window, p.gestures[x.g].events.front());
    if (due >= window.measure_end_ns) return;
    heap.push({due, s, kSend});
  };
  for (std::size_t s = 0; s < sessions.size(); ++s) schedule_gesture(s);

  const auto finish_gesture = [&](std::size_t s, bool answered,
                                  std::int64_t now) {
    State& x = st[s];
    const SessionPlan& p = *sessions[s];
    if (x.measured) {
      ++out->attempted;
      if (!answered || x.failed) {
        ++out->failed;
      } else {
        out->answers.emplace_back(x.first_due_ns,
                                  (now - x.answer_due_ns) / 1e3);
        if (p.gestures[x.g].tap) {
          out->tap_answer_us.push_back((now - x.answer_due_ns) / 1e3);
        }
      }
    }
    if (spans.Samples(p.index)) {
      Span span;
      span.id = x.gesture_span;
      span.name = "gesture";
      span.start_ns = x.first_due_ns;
      span.end_ns = now;
      span.session = p.index;
      span.gesture = static_cast<std::int64_t>(x.g);
      spans.Record(span);
    }
    ++x.g;
    x.e = 0;
    x.failed = false;
    schedule_gesture(s);
  };

  while (!heap.empty()) {
    const Item item = heap.top();
    heap.pop();
    SleepUntilNs(item.at_ns);
    SessionPlan& p = *sessions[item.s];
    State& x = st[item.s];
    const Gesture& g = p.gestures[x.g];
    const auto gi = static_cast<std::int64_t>(x.g);
    if (item.kind == kSend) {
      const dbtouch::sim::TouchEvent& ev = g.events[x.e];
      const std::int64_t due = DueNs(p, window, ev);
      if (x.e == 0) {
        x.first_due_ns = due;
        x.measured = due >= window.measure_start_ns;
        x.gesture_span = spans.Samples(p.index) ? spans.NextId() : 0;
      }
      const std::int64_t now = NowNs();
      if (x.measured) out->send_lag_us.push_back((now - due) / 1e3);
      api::SubmitBatchReq req;
      req.session = p.id;
      req.paced = true;
      req.events.push_back(api::ToWire(ev));
      {
        ScopedSpan span(spans, "submit", x.gesture_span, p.index, gi);
        auto resp = port.Submit(req);
        if (!resp.ok() || resp->accepted != 1) {
          x.failed = true;
          if (out->first_error.empty()) {
            out->first_error = resp.ok() ? "touch rejected at admission"
                                         : resp.status().ToString();
          }
        }
        if (resp.ok()) {
          out->accepted += resp->accepted;
          x.sent += resp->accepted;
          p.accepted += resp->accepted;
        }
      }
      if (++x.e < g.events.size()) {
        heap.push({DueNs(p, window, g.events[x.e]), item.s, kSend});
      } else {
        x.answer_due_ns = due;
        x.target = x.sent;
        heap.push({NowNs(), item.s, kPoll});
      }
      continue;
    }
    // Poll: is the whole gesture answered?
    api::SessionSnapshotReq req;
    req.session = p.id;
    dbtouch::Result<api::SessionSnapshotResp> snap = Status::OK();
    {
      ScopedSpan span(spans, "snapshot", x.gesture_span, p.index, gi);
      snap = port.Snapshot(req);
    }
    const std::int64_t now = NowNs();
    const bool answered =
        snap.ok() && snap->touch_events >= x.target &&
        (!g.tap || snap->result_count >= x.results_seen + g.expected_results);
    if (answered || !snap.ok() || now - x.answer_due_ns > kAnswerLimitNs) {
      if (!answered && out->first_error.empty()) {
        out->first_error = snap.ok() ? "gesture not answered in time"
                                     : snap.status().ToString();
      }
      if (snap.ok()) {
        CheckNewResults(port, p, snap->result_count, &x.results_seen, spans,
                        x.gesture_span, gi, checker);
      }
      finish_gesture(item.s, answered, now);
      continue;
    }
    heap.push({now + PollGapNs(now - x.answer_due_ns), item.s, kPoll});
  }
}

void RunFlood(const WorkloadSpec& spec, std::uint64_t seed, Port& port,
              std::vector<SessionPlan*> sessions, const RunWindow& window,
              SpanRecorder& spans, Checker& checker, DriverStats* out) {
  struct State {
    std::int64_t k = 0;
    std::int64_t sent = 0;
    std::int64_t results_seen = 0;
    std::int64_t result_count = 0;
    Gesture gesture;
    bool done = false;
    bool failed = false;
    std::int64_t span = 0;
  };
  TightenTimerSlack();
  std::vector<State> st(sessions.size());
  SleepUntilNs(window.epoch_ns);
  while (true) {
    const std::int64_t release = NowNs();
    if (release >= window.measure_end_ns) break;
    const bool measured = release >= window.measure_start_ns;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      State& x = st[s];
      SessionPlan& p = *sessions[s];
      x.gesture = MakeGesture(spec, seed, p, x.k);
      x.done = false;
      x.failed = false;
      x.span = spans.Samples(p.index) ? spans.NextId() : 0;
      api::SubmitBatchReq req;
      req.session = p.id;
      req.paced = false;
      for (const auto& e : x.gesture.events) {
        req.events.push_back(api::ToWire(e));
      }
      ScopedSpan span(spans, "submit", x.span, p.index, x.k);
      auto resp = port.Submit(req);
      if (!resp.ok() ||
          resp->accepted != static_cast<std::int64_t>(req.events.size())) {
        x.failed = true;
        if (out->first_error.empty()) {
          out->first_error = resp.ok() ? "touches rejected at admission"
                                       : resp.status().ToString();
        }
      }
      if (resp.ok()) {
        out->accepted += resp->accepted;
        x.sent += resp->accepted;
        p.accepted += resp->accepted;
      }
    }
    std::size_t pending = sessions.size();
    while (pending > 0) {
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        State& x = st[s];
        if (x.done) continue;
        const SessionPlan& p = *sessions[s];
        api::SessionSnapshotReq req;
        req.session = p.id;
        dbtouch::Result<api::SessionSnapshotResp> snap = Status::OK();
        {
          ScopedSpan span(spans, "snapshot", x.span, p.index, x.k);
          snap = port.Snapshot(req);
        }
        const std::int64_t now = NowNs();
        const bool answered =
            snap.ok() && snap->touch_events >= x.sent &&
            (!x.gesture.tap || snap->result_count >=
                                   x.results_seen + x.gesture.expected_results);
        if (!answered && snap.ok() && now - release <= kAnswerLimitNs) {
          continue;
        }
        x.done = true;
        --pending;
        if (snap.ok()) x.result_count = snap->result_count;
        if (!answered) {
          x.failed = true;
          if (out->first_error.empty()) {
            out->first_error = snap.ok() ? "gesture not answered in time"
                                         : snap.status().ToString();
          }
        }
        if (measured) {
          ++out->attempted;
          if (x.failed) {
            ++out->failed;
          } else {
            out->answers.emplace_back(release, (now - release) / 1e3);
          }
        }
        if (spans.Samples(p.index)) {
          Span span;
          span.id = x.span;
          span.name = "gesture";
          span.start_ns = release;
          span.end_ns = now;
          span.session = p.index;
          span.gesture = x.k;
          spans.Record(span);
        }
      }
      if (pending > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    // Checks run after the round, so they never delay a measured answer.
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      State& x = st[s];
      CheckNewResults(port, *sessions[s], x.result_count, &x.results_seen,
                      spans, x.span, x.k, checker);
      ++x.k;
    }
  }
}

}  // namespace perfbench
