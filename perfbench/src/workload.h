// Workload definitions and the load generators of the touch-to-answer
// benchmark. Every call into the program goes through a Port: the public
// server::api surface, either over a gateway::Client (loopback wire) or
// TouchServer::Call in process.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data.h"
#include "gateway/client.h"
#include "server/api.h"
#include "server/touch_server.h"
#include "sim/touch_event.h"
#include "util.h"

namespace perfbench {

namespace api = dbtouch::server::api;

struct WorkloadSpec {
  std::string name;
  /// Drive the server through the gateway over loopback (else in process).
  bool wire = false;
  /// Open loop on each session's timeline (else closed-loop flood rounds).
  bool paced = true;
  /// Spill the table to a PAX block file and reclaim its matrix.
  bool spill = false;
  std::int64_t rows = 0;
  std::int64_t pool_bytes = 0;
  std::int64_t rows_per_block = 16'384;
  int sessions = 0;
  /// Generator (paced) or caller (flood) threads; each owns one Port.
  int threads = 0;
  int workers = 0;
  /// Gestures due before this point warm the program up and are not timed.
  double warmup_s = 1.0;
  /// Traced runs record spans of every n-th session only (bounds the dump).
  int span_session_stride = 1;
};

/// Every session starts one gesture per slot of this length.
inline constexpr double kSlotSeconds = 1.0;

/// Looks a workload up by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// The api surface one driver thread calls.
class Port {
 public:
  virtual ~Port() = default;
  virtual dbtouch::Result<api::OpenSessionResp> Open() = 0;
  virtual dbtouch::Result<api::CreateObjectResp> Create(
      const api::CreateObjectReq& req) = 0;
  virtual dbtouch::Result<api::SetActionResp> SetAction(
      const api::SetActionReq& req) = 0;
  virtual dbtouch::Result<api::SubmitBatchResp> Submit(
      const api::SubmitBatchReq& req) = 0;
  virtual dbtouch::Result<api::SessionSnapshotResp> Snapshot(
      const api::SessionSnapshotReq& req) = 0;
};

class LocalPort final : public Port {
 public:
  explicit LocalPort(dbtouch::server::TouchServer& server) : server_(server) {}
  dbtouch::Result<api::OpenSessionResp> Open() override {
    return server_.Call(api::OpenSessionReq{});
  }
  dbtouch::Result<api::CreateObjectResp> Create(
      const api::CreateObjectReq& req) override {
    return server_.Call(req);
  }
  dbtouch::Result<api::SetActionResp> SetAction(
      const api::SetActionReq& req) override {
    return server_.Call(req);
  }
  dbtouch::Result<api::SubmitBatchResp> Submit(
      const api::SubmitBatchReq& req) override {
    return server_.Call(req);
  }
  dbtouch::Result<api::SessionSnapshotResp> Snapshot(
      const api::SessionSnapshotReq& req) override {
    return server_.Call(req);
  }

 private:
  dbtouch::server::TouchServer& server_;
};

class WirePort final : public Port {
 public:
  explicit WirePort(dbtouch::gateway::Client client)
      : client_(std::move(client)) {}
  dbtouch::Result<api::OpenSessionResp> Open() override {
    return client_.OpenSession();
  }
  dbtouch::Result<api::CreateObjectResp> Create(
      const api::CreateObjectReq& req) override {
    return client_.CreateObject(req);
  }
  dbtouch::Result<api::SetActionResp> SetAction(
      const api::SetActionReq& req) override {
    return client_.SetAction(req);
  }
  dbtouch::Result<api::SubmitBatchResp> Submit(
      const api::SubmitBatchReq& req) override {
    return client_.SubmitBatch(req);
  }
  dbtouch::Result<api::SessionSnapshotResp> Snapshot(
      const api::SessionSnapshotReq& req) override {
    return client_.SessionSnapshot(req);
  }

 private:
  dbtouch::gateway::Client client_;
};

/// One gesture of a session's exploration log. Timestamps are on the
/// session's own timeline (monotonic across its gestures).
struct Gesture {
  std::vector<dbtouch::sim::TouchEvent> events;
  /// Index into the session's objects.
  int object = 0;
  bool tap = false;
  /// Results a tap must make visible (0 for slides: their end touch is the
  /// marker).
  int expected_results = 0;
};

/// A session as the driver sees it: ids, plans, and its log.
struct SessionPlan {
  int index = 0;
  api::SessionId id = 0;
  std::vector<ObjectPlan> objects;
  std::vector<api::WireRect> frames;
  std::map<std::int64_t, ObjectPlan> by_id;
  /// Paced sessions: the whole log, one gesture per slot.
  std::vector<Gesture> gestures;
  /// Offset of the session's timeline origin from the run epoch (ns).
  std::int64_t origin_offset_ns = 0;
  /// Touches the server accepted for this session (client-side count).
  std::int64_t accepted = 0;
};

/// Objects (and their actions) session `index` explores.
void PlanObjects(const WorkloadSpec& spec, SessionPlan* plan);

/// Gesture `k` of session `plan`, starting in slot k of its timeline.
Gesture MakeGesture(const WorkloadSpec& spec, std::uint64_t seed,
                    const SessionPlan& plan, std::int64_t k);

/// Opens the session and creates + configures its objects over `port`.
dbtouch::Status OpenPlannedSession(Port& port, SessionPlan* plan);

/// Per-thread outcome of the timed phase.
struct DriverStats {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t accepted = 0;
  /// (due time ns, touch-to-answer us) per answered measured gesture.
  std::vector<std::pair<std::int64_t, double>> answers;
  /// The taps among them (paced workloads; a reference figure).
  std::vector<double> tap_answer_us;
  std::vector<double> send_lag_us;
  std::string first_error;
};

struct RunWindow {
  std::int64_t epoch_ns = 0;         // timeline origin of the run
  std::int64_t measure_start_ns = 0; // first timed gesture due
  std::int64_t measure_end_ns = 0;   // no gesture starts at or after this
};

/// Paced open-loop generator: sends each touch at its slot, polls for the
/// gesture's answer after its last touch.
void RunPaced(Port& port, std::vector<SessionPlan*> sessions,
              const RunWindow& window, SpanRecorder& spans, Checker& checker,
              DriverStats* out);

/// Closed-loop flood rounds: release one whole gesture per session, wait
/// for every answer, repeat.
void RunFlood(const WorkloadSpec& spec, std::uint64_t seed, Port& port,
              std::vector<SessionPlan*> sessions, const RunWindow& window,
              SpanRecorder& spans, Checker& checker, DriverStats* out);

/// Converts the benchmark's wire action to the kernel's action config (for
/// the standalone kernel replay).
dbtouch::core::ActionConfig ToActionConfig(const api::WireAction& a);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
