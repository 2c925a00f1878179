#ifndef MRLQUANT_STREAM_GENERATOR_H_
#define MRLQUANT_STREAM_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "stream/dataset.h"
#include "stream/order.h"

namespace mrl {

/// Declarative description of a synthetic stream: what values, in what
/// order, how many, from which seed. The tuple fully determines the stream.
struct StreamSpec {
  std::string distribution = "uniform";  ///< See MakeDistribution().
  ArrivalOrder order = ArrivalOrder::kAsDrawn;
  std::size_t n = 0;
  std::uint64_t seed = 1;
};

/// Materializes the stream described by `spec`. CHECK-fails on an unknown
/// distribution name (specs are programmer-provided in this library).
Dataset GenerateStream(const StreamSpec& spec);

}  // namespace mrl

#endif  // MRLQUANT_STREAM_GENERATOR_H_
