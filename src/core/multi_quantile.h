#ifndef MRLQUANT_CORE_MULTI_QUANTILE_H_
#define MRLQUANT_CORE_MULTI_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "core/unknown_n.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Simultaneous computation of up to `num_quantiles` quantiles (Section
/// 4.7): the algorithm is unchanged; the analysis replaces delta by
/// delta / p (union bound), so each of the p answers is eps-approximate
/// with overall probability >= 1 - delta.
class MultiQuantileSketch : public QuantileEstimator {
 public:
  struct Options {
    double eps = 0.01;
    double delta = 1e-4;
    std::uint64_t num_quantiles = 1;  ///< p
    std::uint64_t seed = 1;
  };

  static Result<MultiQuantileSketch> Create(const Options& options);

  MultiQuantileSketch(MultiQuantileSketch&&) = default;
  MultiQuantileSketch& operator=(MultiQuantileSketch&&) = default;

  void Add(Value v) override { inner_.Add(v); }
  void AddBatch(std::span<const Value> values) override {
    inner_.AddBatch(values);
  }
  std::uint64_t count() const override { return inner_.count(); }
  Result<Value> Query(double phi) const override { return inner_.Query(phi); }
  std::uint64_t MemoryElements() const override {
    return inner_.MemoryElements();
  }
  std::string name() const override { return "mrl99_multi_quantile"; }

  /// All requested quantiles in one merge pass. The joint guarantee covers
  /// at most `num_quantiles` simultaneous answers; more is rejected.
  Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const override;

  void Reset() override { inner_.Reset(); }
  void Reset(std::uint64_t seed) override { inner_.Reset(seed); }

  std::uint64_t num_quantiles() const { return p_; }
  const UnknownNParams& params() const { return inner_.params(); }

 private:
  MultiQuantileSketch(UnknownNSketch inner, std::uint64_t p)
      : inner_(std::move(inner)), p_(p) {}

  UnknownNSketch inner_;
  std::uint64_t p_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_MULTI_QUANTILE_H_
