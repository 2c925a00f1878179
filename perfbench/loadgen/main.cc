// perfbench_load: the benchmark's load generator. Spawns the system under
// test (mrlquantd, and for routed_partitioned mrlquant_router in front of
// three daemons), feeds it seeded inputs, checks every answer, and prints
// one JSON result line. perfbench/run.py builds it and passes the flags.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --bin-dir DIR --run-dir DIR [--spans FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "loadgen/harness.h"
#include "loadgen/workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--bin-dir") {
      options.bin_dir = value;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      perfbench::Fail("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) perfbench::Fail("flags come in pairs");
  if (!perfbench::IsWorkload(options.workload)) {
    perfbench::Fail("unknown workload '" + options.workload + "'");
  }
  if (options.seconds <= 0 || options.bin_dir.empty() ||
      options.run_dir.empty()) {
    perfbench::Fail("--seconds, --bin-dir and --run-dir are required");
  }
  return perfbench::Run(options);
}
