#include "loadgen/harness.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/simd.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_load: %s\n", message.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // _Exit, not exit: Fail may run on a worker thread while others still
  // use the process's objects. The system's processes die with this one
  // (parent-death signal).
  std::_Exit(1);
}

std::uint32_t Tracer::Record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint32_t parent,
                             std::uint64_t req, std::uint64_t units) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.req = req;
  span.units = units;
  spans_.push_back(span);
  return span.id;
}

std::vector<std::int64_t> Tracer::ChildNs() const {
  std::vector<std::int64_t> child(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  return child;
}

std::vector<double> Tracer::SelfNs(const std::string& name) const {
  const std::vector<std::int64_t> child = ChildNs();
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - child[s.id]));
    }
  }
  return out;
}

std::vector<double> Tracer::DurationNs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::pair<double, double> Tracer::SelfAndUnits(const std::string& name) const {
  const std::vector<std::int64_t> child = ChildNs();
  double self = 0;
  double units = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      self += static_cast<double>(s.end_ns - s.start_ns - child[s.id]);
      units += static_cast<double>(s.units);
    }
  }
  return {self, units};
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write spans to " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"req\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"units\":%llu}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.req), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.units));
  }
  if (std::fclose(f) != 0) Fail("cannot write spans to " + path);
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) Fail("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinToCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) Fail("sched_setaffinity failed");
}

Process Process::Spawn(const std::vector<std::string>& argv,
                       const std::string& log_path, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty() && ::sched_setaffinity(0, sizeof(set), &set) != 0) ::_exit(126);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDERR_FILENO);
      ::dup2(log, STDOUT_FILENO);
      ::close(log);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  Process p;
  p.pid_ = pid;
  return p;
}

Process& Process::operator=(Process&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = std::exchange(other.pid_, -1);
  }
  return *this;
}

bool Process::Running() {
  if (pid_ < 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return true;
  pid_ = -1;
  return false;
}

bool Process::Stop() {
  if (pid_ < 0) return false;
  int status = 0;
  bool exited_early = ::waitpid(pid_, &status, WNOHANG) == pid_;
  if (!exited_early) {
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {  // up to 5 s for a clean shutdown
      if (::waitpid(pid_, &status, WNOHANG) == pid_) break;
      if (i == 499) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  pid_ = -1;
  return exited_early;
}

std::int64_t ProcessCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) Fail("cannot read /proc stat of the system");
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000LL / ticks);
}

std::int64_t ProcessPeakRssKib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  Fail("cannot read VmHWM of the system");
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  HostCpu h;
  if (!(in >> label) || label != "cpu") return h;
  // user nice system idle iowait irq softirq steal ...
  double v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string StampJson() {
  JsonObject stamp;
  stamp.AddNumber("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  stamp.AddString("cpu_model", CpuModel());
  stamp.AddString("simd_path", mrl::simd::ActivePathName());
  stamp.AddString("cpu_features", mrl::simd::CpuFeatureString());
  stamp.AddString("compiler", PERFBENCH_COMPILER);
  stamp.AddString("build_type", PERFBENCH_BUILD_TYPE);
  return stamp.str();
}

void JsonObject::Add(const std::string& key, const std::string& raw_json) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": " + raw_json;
}

void JsonObject::AddNumber(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(key, buf);
}

void JsonObject::AddString(const std::string& key, const std::string& value) {
  Add(key, "\"" + JsonEscape(value) + "\"");
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::Json() const {
  JsonObject all;
  for (const auto& [name, vu] : items_) {
    JsonObject m;
    m.AddNumber("value", vu.first);
    m.AddString("unit", vu.second);
    all.Add(name, m.str());
  }
  return all.str();
}

}  // namespace perfbench
