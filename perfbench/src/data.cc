#include "data.h"

#include <cmath>
#include <utility>

#include "core/action.h"
#include "core/result_stream.h"
#include "exec/aggregate.h"
#include "storage/column.h"

namespace perfbench {

namespace api = dbtouch::server::api;
using dbtouch::core::ActionKind;
using dbtouch::core::ResultKind;
using dbtouch::exec::AggKind;

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::int64_t DataGen::Value(int col, std::int64_t row) const {
  const auto r = static_cast<std::uint64_t>(row);
  switch (col) {
    case kOrd:
      return 3 * row + 7;
    case kClu: {
      const std::uint64_t run = r / kCluRunRows;
      const auto band =
          static_cast<std::int64_t>(Mix(seed_ ^ (run * 0x51ed27ull)) % 1000);
      return band * 1000 +
             static_cast<std::int64_t>(Mix(seed_ * 31 + r) % 1000);
    }
    case kGrp:
      return static_cast<std::int64_t>(Mix(seed_ * 131 + r * 7) % 64);
    case kAmt:
      return static_cast<std::int64_t>(
          Mix(seed_ ^ (r * 0x2545f4914f6cdd1dull)) % kAmtRange);
    default:
      return 0;
  }
}

std::shared_ptr<dbtouch::storage::Table> DataGen::MakeTable(
    const std::string& name) const {
  std::vector<dbtouch::storage::Column> cols;
  std::vector<std::int64_t> v(static_cast<std::size_t>(rows_));
  for (int c = 0; c < kNumCols; ++c) {
    for (std::int64_t r = 0; r < rows_; ++r) {
      v[static_cast<std::size_t>(r)] = Value(c, r);
    }
    cols.push_back(dbtouch::storage::Column::FromInt64(kColNames[c], v));
  }
  auto table = dbtouch::storage::Table::FromColumns(name, std::move(cols));
  return table.ok() ? *table : nullptr;
}

void Checker::Fail(const std::string& why) {
  ++failures_;
  if (first_failure_.empty()) first_failure_ = why;
}

void Checker::Merge(const Checker& other) {
  checked_ += other.checked_;
  approximate_ += other.approximate_;
  failures_ += other.failures_;
  if (first_failure_.empty()) first_failure_ = other.first_failure_;
  captured_.insert(captured_.end(), other.captured_.begin(),
                   other.captured_.end());
}

void Checker::CheckRun(const std::map<std::int64_t, ObjectPlan>& objects,
                       const std::vector<api::ResultInfo>& items) {
  if (capture_ && captured_.size() < 256 && !items.empty()) {
    captured_.push_back({objects, items});
  }
  int tuple_attr = 0;
  std::int64_t tuple_object = -1;
  for (const api::ResultInfo& r : items) {
    const auto it = objects.find(r.object);
    std::string why;
    int attribute = 0;
    if (static_cast<ResultKind>(r.kind) == ResultKind::kTuple) {
      // A table tap appends one kTuple per attribute, in schema order.
      if (r.object != tuple_object || tuple_attr == kNumCols) {
        tuple_object = r.object;
        tuple_attr = 0;
      }
      attribute = tuple_attr++;
    } else {
      tuple_object = -1;
    }
    ++checked_;
    if (r.approximate) ++approximate_;
    if (it == objects.end()) {
      Fail("result for unknown object " + std::to_string(r.object));
    } else if (!CheckOne(it->second, r, attribute, &why)) {
      Fail(why + " (object " + std::to_string(r.object) + ", row " +
           std::to_string(r.row) + ", value " + std::to_string(r.value) +
           ")");
    }
  }
}

bool Checker::CheckOne(const ObjectPlan& plan, const api::ResultInfo& r,
                       int attribute, std::string* why) const {
  if (r.row < 0 || r.row >= gen_->rows()) {
    *why = "row out of range";
    return false;
  }
  const auto exact = [&](int col) {
    return r.value == static_cast<double>(gen_->Value(col, r.row));
  };
  switch (static_cast<ResultKind>(r.kind)) {
    case ResultKind::kValue:
      if (plan.table || !exact(plan.column)) {
        *why = "scan/tap value differs from the generator";
        return false;
      }
      return true;
    case ResultKind::kTuple:
      if (!plan.table || !exact(attribute)) {
        *why = "table tap attribute " + std::to_string(attribute) +
               " differs from the generator";
        return false;
      }
      return true;
    case ResultKind::kFilterMatch:
      if (plan.table || !exact(plan.column)) {
        *why = "filter match differs from the generator";
        return false;
      }
      if (r.value < plan.action.predicate_lo ||
          r.value > plan.action.predicate_hi) {
        *why = "filter match violates its predicate";
        return false;
      }
      return true;
    case ResultKind::kSummary: {
      // Summaries run on the increasing `ord` column: a band around the
      // touched row has its min at or before the row and its max at or
      // after the row's sample entry (at most one 2^16 stride before it).
      const double v = r.value;
      const bool on_lattice =
          v == std::floor(v) &&
          (static_cast<std::int64_t>(v) - 7) % 3 == 0 &&
          v >= gen_->Value(kOrd, 0) &&
          v <= gen_->Value(kOrd, gen_->rows() - 1);
      const auto agg = static_cast<AggKind>(plan.action.agg);
      bool ok = !plan.table && plan.column == kOrd && on_lattice;
      if (ok && agg == AggKind::kMin) {
        ok = v <= gen_->Value(kOrd, r.row);
      } else if (ok && agg == AggKind::kMax) {
        ok = v >= gen_->Value(kOrd, std::max<std::int64_t>(0, r.row - 65536));
      } else {
        ok = false;
      }
      if (!ok) *why = "summary breaks the column's known order";
      return ok;
    }
    case ResultKind::kGroupUpdate: {
      // Max of `amt` over the touched tuples of the touched row's group,
      // the touched tuple among them.
      const bool ok = plan.table &&
                      static_cast<AggKind>(plan.action.agg) == AggKind::kMax &&
                      r.value == std::floor(r.value) &&
                      r.value >= gen_->Value(kAmt, r.row) &&
                      r.value < kAmtRange;
      if (!ok) *why = "group-by max outside the value column's range";
      return ok;
    }
    default:
      *why = "unexpected result kind " + std::to_string(r.kind);
      return false;
  }
}

}  // namespace perfbench
