#ifndef MRLQUANT_CORE_SUMMARY_H_
#define MRLQUANT_CORE_SUMMARY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/weighted_merge.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// An immutable snapshot of a sketch's distribution estimate: distinct
/// values ascending, each with the cumulative weight of everything <= it.
/// This is the "synopsis data structure" view (Section 1.5, [GM98]): a
/// self-contained object that a query optimizer can version, cache, ship
/// between nodes, and query in O(log m) — decoupled from the live sketch,
/// which keeps streaming.
///
/// Obtained from UnknownNSketch::ExportSummary() (and the known-N
/// equivalent); both quantile and rank queries inherit the sketch's
/// eps-approximation guarantee at the moment of export.
class QuantileSummary {
 public:
  struct Entry {
    Value value;
    Weight cumulative_weight;  ///< weight of all elements <= value
  };

  /// Builds a summary from weighted runs (each sorted ascending). Equal
  /// values are coalesced.
  static QuantileSummary FromRuns(const std::vector<WeightedRun>& runs);

  QuantileSummary() = default;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  Weight total_weight() const {
    return entries_.empty() ? 0 : entries_.back().cumulative_weight;
  }
  const std::vector<Entry>& entries() const { return entries_; }

  /// The weighted phi-quantile, phi in (0, 1]. O(log size).
  Result<Value> Quantile(double phi) const;

  /// Normalized rank of v: (weight of elements <= v) / total, in [0, 1].
  Result<double> Rank(Value v) const;

  /// Evenly spaced CDF points (value, cumulative fraction) for plotting or
  /// histogram export; `points` >= 2.
  Result<std::vector<std::pair<Value, double>>> CdfPoints(
      std::size_t points) const;

  /// Checkpoint encoding (appended to `writer`).
  void SerializeTo(BinaryWriter* writer) const;

  /// Decodes a summary written by SerializeTo; validates monotonicity.
  static Result<QuantileSummary> DeserializeFrom(BinaryReader* reader);

 private:
  explicit QuantileSummary(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  std::vector<Entry> entries_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_SUMMARY_H_
