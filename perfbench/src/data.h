// The benchmark's data: a generator formula that is the single source of
// truth for every cell, and an output checker that verifies the program's
// answers against that formula, independently of the program.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/api.h"
#include "storage/table.h"

namespace perfbench {

/// Column layout of the generated table. All columns are int64, so every
/// value survives the wire's double encoding exactly.
///   ord: 3*row + 7                     strictly increasing (summaries)
///   clu: zone-clustered in [0, 1e6)    4096-row runs share a 1000-wide
///                                      value band, so zone maps prune
///   grp: uniform in [0, 64)            group-by key
///   amt: uniform in [0, 100000)        group-by value
enum Col : int { kOrd = 0, kClu = 1, kGrp = 2, kAmt = 3, kNumCols = 4 };

inline constexpr const char* kColNames[kNumCols] = {"ord", "clu", "grp",
                                                    "amt"};
inline constexpr std::int64_t kCluRunRows = 4096;
inline constexpr std::int64_t kAmtRange = 100'000;

class DataGen {
 public:
  DataGen(std::uint64_t seed, std::int64_t rows) : seed_(seed), rows_(rows) {}

  std::int64_t rows() const { return rows_; }
  std::int64_t Value(int col, std::int64_t row) const;

  /// Materialises the table (the only place input arrays are built).
  std::shared_ptr<dbtouch::storage::Table> MakeTable(
      const std::string& name) const;

 private:
  std::uint64_t seed_;
  std::int64_t rows_;
};

/// What one data object computes, as the benchmark configured it.
struct ObjectPlan {
  bool table = false;          // fat table object (else column object)
  int column = 0;              // bound column (column objects)
  dbtouch::server::api::WireAction action;
};

/// Verifies result tails from SessionSnapshotResp against the formula.
/// Not thread-safe; one per driver thread, merged at the end.
class Checker {
 public:
  explicit Checker(const DataGen* gen) : gen_(gen) {}

  /// Checks `items`, the complete run of results a session appended since
  /// its previous check (so a table tap's kTuple run starts at attribute
  /// 0). `objects` maps object ids to their plans.
  void CheckRun(const std::map<std::int64_t, ObjectPlan>& objects,
                const std::vector<dbtouch::server::api::ResultInfo>& items);

  /// Records an independent-totals violation (accepted vs executed, ...).
  void Fail(const std::string& why);

  void Merge(const Checker& other);

  /// Keeps copies of the first checked runs (self-test input).
  struct CapturedRun {
    std::map<std::int64_t, ObjectPlan> objects;
    std::vector<dbtouch::server::api::ResultInfo> items;
  };
  void set_capture(bool on) { capture_ = on; }
  const std::vector<CapturedRun>& captured() const { return captured_; }

  std::int64_t checked() const { return checked_; }
  std::int64_t approximate() const { return approximate_; }
  std::int64_t failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  bool CheckOne(const ObjectPlan& plan,
                const dbtouch::server::api::ResultInfo& r, int attribute,
                std::string* why) const;

  const DataGen* gen_;
  std::int64_t checked_ = 0;
  std::int64_t approximate_ = 0;
  std::int64_t failures_ = 0;
  std::string first_failure_;
  bool capture_ = false;
  std::vector<CapturedRun> captured_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
