// The three workloads and the two kinds of run (end-to-end, traced).
#ifndef PERFBENCH_LOADGEN_WORKLOADS_H_
#define PERFBENCH_LOADGEN_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;     ///< where mrlquantd / mrlquant_router live
  std::string run_dir;     ///< sockets and process logs of this run
  std::string spans_path;  ///< traced run: spans are written here at exit
};

/// True for a workload name Run accepts.
bool IsWorkload(const std::string& name);

/// Runs one workload and prints its result; returns the exit code.
int Run(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_WORKLOADS_H_
