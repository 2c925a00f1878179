#include "core/multi_quantile.h"

namespace mrl {

Result<MultiQuantileSketch> MultiQuantileSketch::Create(
    const Options& options) {
  if (options.num_quantiles == 0) {
    return Status::InvalidArgument("num_quantiles must be >= 1");
  }
  UnknownNOptions inner_options;
  inner_options.eps = options.eps;
  inner_options.delta =
      options.delta / static_cast<double>(options.num_quantiles);
  inner_options.seed = options.seed;
  Result<UnknownNSketch> inner = UnknownNSketch::Create(inner_options);
  if (!inner.ok()) return inner.status();
  return MultiQuantileSketch(std::move(inner).value(), options.num_quantiles);
}

Result<std::vector<Value>> MultiQuantileSketch::QueryMany(
    const std::vector<double>& phis) const {
  if (phis.size() > p_) {
    return Status::InvalidArgument(
        "requested " + std::to_string(phis.size()) +
        " quantiles but the joint guarantee covers only " +
        std::to_string(p_));
  }
  return inner_.QueryMany(phis);
}

}  // namespace mrl
