#include "stream/generator.h"

#include <memory>
#include <vector>

#include "stream/distribution.h"
#include "util/logging.h"
#include "util/random.h"

namespace mrl {

Dataset GenerateStream(const StreamSpec& spec) {
  std::unique_ptr<Distribution> dist = MakeDistribution(spec.distribution);
  MRL_CHECK(dist != nullptr) << "unknown distribution: " << spec.distribution;
  Random rng(spec.seed);
  std::vector<Value> values;
  values.reserve(spec.n);
  for (std::size_t i = 0; i < spec.n; ++i) {
    values.push_back(dist->Draw(&rng));
  }
  ApplyArrivalOrder(spec.order, &rng, &values);
  return Dataset(std::move(values));
}

}  // namespace mrl
