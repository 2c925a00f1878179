// Measurement plumbing of the load generator: clocks, percentiles, the
// in-memory span recorder, child processes of the system under test and
// their /proc accounting, and the host/build stamp.
#ifndef PERFBENCH_LOADGEN_HARNESS_H_
#define PERFBENCH_LOADGEN_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; sorts a copy. 0 when empty.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Prints a diagnostic to stderr and exits nonzero without a result line;
/// safe to call from any thread.
[[noreturn]] void Fail(const std::string& message);

/// One timed interval at a layer boundary. Spans of one request share
/// `req`; `parent` is the id of the span that caused this one (0 = root).
///
/// The program under test carries no spans of its own, so a child is the
/// same work replayed by the benchmark through the child layer's public
/// function, timed as a separate call on the same input. A span's self
/// time is therefore its duration minus its children's durations, not
/// minus their overlap with its interval.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t req = 0;
  std::uint64_t units = 0;  ///< work the span covered (values or bytes)
};

/// Keeps spans in memory; writes them out once, at exit. A disabled tracer
/// records nothing and Time() just runs the call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs `fn`, recording a span around it; returns the span id (0 when
  /// disabled).
  template <typename Fn>
  std::uint32_t Time(const char* name, std::uint32_t parent, std::uint64_t req,
                     std::uint64_t units, Fn&& fn) {
    if (!enabled_) {
      fn();
      return 0;
    }
    const std::int64_t start = NowNs();
    fn();
    const std::int64_t end = NowNs();
    return Record(name, start, end, parent, req, units);
  }

  std::uint32_t Record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent,
                       std::uint64_t req, std::uint64_t units);

  /// Self time (ns) of every span named `name`, in recording order.
  std::vector<double> SelfNs(const std::string& name) const;
  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> DurationNs(const std::string& name) const;
  /// Sum of self times and of units over the spans named `name`.
  std::pair<double, double> SelfAndUnits(const std::string& name) const;

  /// Writes every span as JSON lines (one object per span) to `path`.
  void WriteJsonLines(const std::string& path) const;

 private:
  /// Sum of child durations per parent id (index = id).
  std::vector<std::int64_t> ChildNs() const;

  bool enabled_;
  std::vector<Span> spans_;
};

/// A process of the system under test. Spawned with the parent-death
/// signal set, so a crashed load generator takes its children with it.
/// Stop() sends SIGTERM and reaps the process, escalating to SIGKILL.
class Process {
 public:
  Process() = default;
  /// Starts argv[0] with `argv`, stderr appended to `log_path`, confined
  /// to the CPUs in `cpus` (no confinement when empty).
  static Process Spawn(const std::vector<std::string>& argv,
                       const std::string& log_path, const std::vector<int>& cpus);
  Process(Process&& other) noexcept : pid_(std::exchange(other.pid_, -1)) {}
  Process& operator=(Process&& other) noexcept;
  ~Process() { Stop(); }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  pid_t pid() const { return pid_; }
  /// False once the process has exited (it is then reaped).
  bool Running();
  /// Reaps the process; true when it had already exited on its own.
  bool Stop();

 private:
  pid_t pid_ = -1;
};

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Confines the calling thread, and the threads it creates later, to
/// `cpus`; no-op when empty.
void PinToCpus(const std::vector<int>& cpus);

/// user+sys CPU (ns) consumed so far by `pid`, all threads, from
/// /proc/<pid>/stat.
std::int64_t ProcessCpuNs(pid_t pid);
/// Peak resident set size (KiB) of `pid`: VmHWM from /proc/<pid>/status.
std::int64_t ProcessPeakRssKib(pid_t pid);

/// Host-wide CPU time (all fields of /proc/stat's "cpu" line) and the
/// part of it stolen by the hypervisor, in clock ticks.
struct HostCpu {
  double total = 0;
  double steal = 0;
};
HostCpu ReadHostCpu();

/// Host and build stamp as a JSON object: nproc, CPU model, SIMD dispatch
/// path and detected features, compiler, build type. Results with
/// different stamps are not comparable (perfbench/compare.py refuses).
std::string StampJson();

/// Sequential JSON object writer for the result line.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& raw_json);
  void AddNumber(const std::string& key, double value);
  void AddString(const std::string& key, const std::string& value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Metric name → (value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_HARNESS_H_
