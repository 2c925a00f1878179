// Shared main() for the google-benchmark based benches. Runs the usual
// console reporter and mirrors every non-aggregate run into a
// BenchReporter, so bench binaries contribute rows to the JSON perf
// artifact MRLQUANT_BENCH_JSON names without per-bench plumbing.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bench_reporter.h"

namespace mrl {
namespace bench {

namespace {

class MirroringReporter : public benchmark::ConsoleReporter {
 public:
  explicit MirroringReporter(BenchReporter* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      BenchRecord record;
      record.name = run.benchmark_name();
      record.iterations = static_cast<std::uint64_t>(run.iterations);
      if (run.iterations > 0) {
        record.ns_per_op = run.real_accumulated_time /
                           static_cast<double>(run.iterations) * 1e9;
      }
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) record.elements_per_s = it->second;
      it = run.counters.find("mem_elems");
      if (it != run.counters.end()) record.mem_elements = it->second;
      sink_->Report(std::move(record));
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  BenchReporter* sink_;
};

}  // namespace

int RunBenchmarksWithReporter(int argc, char** argv, const char* bench_name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchReporter reporter(bench_name);
  MirroringReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  reporter.Flush();
  return 0;
}

}  // namespace bench
}  // namespace mrl
