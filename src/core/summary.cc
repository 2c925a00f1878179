#include "core/summary.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/sort.h"

namespace mrl {

QuantileSummary QuantileSummary::FromRuns(
    const std::vector<WeightedRun>& runs) {
  // (value, weight) is exactly the engine's KeyedPayload record; the
  // stable radix sort keeps equal values in insertion order, and the
  // coalescing below sums their weights either way.
  std::vector<KeyedPayload> weighted;
  for (const WeightedRun& run : runs) {
    for (std::size_t i = 0; i < run.size; ++i) {
      weighted.emplace_back(run.data[i], run.weight);
    }
  }
  SortPairs(weighted.data(), weighted.size());
  std::vector<Entry> entries;
  Weight cum = 0;
  for (const auto& [value, weight] : weighted) {
    cum += weight;
    if (!entries.empty() && entries.back().value == value) {
      entries.back().cumulative_weight = cum;  // coalesce duplicates
    } else {
      entries.push_back({value, cum});
    }
  }
  return QuantileSummary(std::move(entries));
}

Result<Value> QuantileSummary::Quantile(double phi) const {
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  if (entries_.empty()) {
    return Status::FailedPrecondition("empty summary");
  }
  const Weight total = total_weight();
  Weight target = static_cast<Weight>(
      std::ceil(phi * static_cast<double>(total)));
  if (target < 1) target = 1;
  if (target > total) target = total;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), target,
      [](const Entry& e, Weight t) { return e.cumulative_weight < t; });
  MRL_DCHECK(it != entries_.end());
  return it->value;
}

Result<double> QuantileSummary::Rank(Value v) const {
  if (entries_.empty()) {
    return Status::FailedPrecondition("empty summary");
  }
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), v,
      [](Value x, const Entry& e) { return x < e.value; });
  if (it == entries_.begin()) return 0.0;
  return static_cast<double>((it - 1)->cumulative_weight) /
         static_cast<double>(total_weight());
}

Result<std::vector<std::pair<Value, double>>> QuantileSummary::CdfPoints(
    std::size_t points) const {
  if (points < 2) {
    return Status::InvalidArgument("need at least 2 CDF points");
  }
  if (entries_.empty()) {
    return Status::FailedPrecondition("empty summary");
  }
  std::vector<std::pair<Value, double>> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double phi =
        static_cast<double>(i + 1) / static_cast<double>(points);
    Result<Value> q = Quantile(phi);
    if (!q.ok()) return q.status();
    out.emplace_back(q.value(), phi);
  }
  return out;
}

void QuantileSummary::SerializeTo(BinaryWriter* writer) const {
  writer->PutU64(entries_.size());
  for (const Entry& e : entries_) {
    writer->PutDouble(e.value);
    writer->PutU64(e.cumulative_weight);
  }
}

Result<QuantileSummary> QuantileSummary::DeserializeFrom(
    BinaryReader* reader) {
  std::uint64_t n;
  if (!reader->GetU64(&n)) return reader->status();
  if (n > reader->Remaining() / 16) {
    return Status::InvalidArgument("summary length exceeds input");
  }
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry e;
    if (!reader->GetDouble(&e.value) ||
        !reader->GetU64(&e.cumulative_weight)) {
      return reader->status();
    }
    if (!entries.empty() &&
        (e.value <= entries.back().value ||
         e.cumulative_weight <= entries.back().cumulative_weight)) {
      return Status::InvalidArgument("summary entries not monotone");
    }
    entries.push_back(e);
  }
  return QuantileSummary(std::move(entries));
}

}  // namespace mrl
