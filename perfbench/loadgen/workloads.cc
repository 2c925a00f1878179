#include "loadgen/workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/partial.h"
#include "core/unknown_n.h"
#include "core/weighted_merge.h"
#include "loadgen/harness.h"
#include "loadgen/inputs.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "util/sort.h"

namespace perfbench {
namespace {

using mrl::server::Client;
using mrl::server::TenantConfig;

constexpr double kEps = 0.01;
constexpr double kDelta = 1e-4;
/// QUERY_MULTI grid: the tails and the middle.
const std::vector<double> kPhis = {0.01, 0.05, 0.1,  0.25, 0.5,
                                   0.75, 0.9,  0.95, 0.99};
constexpr std::uint64_t kKi = 1024;
constexpr std::uint64_t kMi = kKi * kKi;
/// setup_s is the median of this many spawn → ready → create cycles.
constexpr int kSetupRepeats = 11;
/// A stalled system fails the run instead of hanging it.
constexpr int kIoTimeoutMs = 60000;
/// Partitions of a partitioned tenant: one per daemon behind the router.
constexpr int kPartitions = 3;
/// util.sort_pairs spans each time this many SortPairs calls.
constexpr int kPairsPerSpan = 64;
/// Nice value of the writer threads, which share the system's CPU.
constexpr int kWriterNice = 10;

/// Why each workload exists is in perfbench/README.md.
struct WorkloadSpec {
  const char* name;
  int daemons;               ///< mrlquantd processes
  int shards;                ///< --shards of each daemon
  bool router;               ///< mrlquant_router in front of the daemons
  std::size_t frame_values;  ///< values per ADD_BATCH frame
  int writers;               ///< writer connections, one thread each
  int depth;                 ///< frames per pipelined flush (1: one per round trip)
  /// Rate of the open-loop reader beside the ingest: far enough below
  /// what the system serves that a slower host does not build a backlog.
  double query_hz;
};

constexpr WorkloadSpec kSpecs[] = {
    {"ingest_bulk", 1, 1, false, 16 * kKi, 1, 1, 200},
    {"tenants_mixed", 1, 2, false, kKi, 2, 32, 100},
    {"routed_partitioned", 3, 1, true, 16 * kKi, 1, 1, 100},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

struct Tenant {
  std::string name;
  TenantInput input;
  int writer = 0;
  bool partitioned = false;
  TenantConfig config;
};

/// One ADD_BATCH round trip, or one pipelined flush of frames [first, last).
struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t values = 0;
};

struct QuerySample {
  std::int64_t due_ns = 0;  ///< open-loop schedule
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

struct UnitResult {
  double ingest_s = 0;
  std::uint64_t values = 0;
  std::vector<std::vector<Window>> windows;  ///< per writer
  std::vector<QuerySample> queries;
};

/// One launch of the system under test.
struct System {
  std::vector<Process> daemons;
  std::vector<std::string> daemon_socks;
  Process router;
  std::string router_sock;

  const std::string& entry() const {
    return router_sock.empty() ? daemon_socks[0] : router_sock;
  }
  std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    for (const Process& d : daemons) out.push_back(d.pid());
    if (router.pid() >= 0) out.push_back(router.pid());
    return out;
  }
};

Client Connect(const std::string& path) {
  mrl::Result<Client> c = Client::ConnectUnix(path, 5000);
  if (!c.ok()) Fail("connect " + path + ": " + c.status().ToString());
  Client client = std::move(c).value();
  if (!client.SetIoTimeout(kIoTimeoutMs).ok()) Fail("SetIoTimeout failed");
  return client;
}

/// Polls until the process answers Ping on `sock`.
void WaitReady(Process* p, const std::string& sock) {
  const std::int64_t deadline = NowNs() + 20'000'000'000LL;
  while (NowNs() < deadline) {
    if (!p->Running()) Fail("a system process exited during start-up");
    mrl::Result<Client> c = Client::ConnectUnix(sock, 100);
    if (c.ok() && c.value().Ping().ok()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Fail("system did not answer Ping on " + sock);
}

/// Sleeps until `due_ns`. The reader shares a busy CPU with the system, so
/// it does not spin: spinning would take that CPU from the system.
void SleepUntil(std::int64_t due_ns) {
  const std::int64_t ahead = due_ns - NowNs();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

struct Replayer;

class Bench {
 public:
  Bench(const Options& options, const WorkloadSpec& spec)
      : opts_(options), spec_(spec), tracer_(options.trace) {}

  int Run();

 private:
  void Generate();
  System Launch(int index);
  Process LaunchRouter(const std::vector<std::string>& backends, bool routed,
                       const std::string& sock);
  void Connect(const System& sys);
  Client& ClientFor(std::size_t t) { return clients_[tenants_[t].writer]; }

  void CreateTenants();
  void DeleteTenants();
  UnitResult RunUnit(bool keep_tenants);
  void Writer(int w, std::vector<Window>* out);
  void QueryLoop(std::uint64_t unit, const std::atomic<bool>* stop,
                 std::vector<QuerySample>* out);
  void FinalCheck();

  void EndToEndMetrics(const std::vector<double>& setup_s,
                 const std::vector<UnitResult>& units, double cpu_ns,
                 double rss_kib, Metrics* m) const;
  // The traced run, below.
  struct FetchTimes {
    std::vector<double> sum_us;  ///< per round, over the daemons
    std::vector<double> max_us;
  };
  void Trace(const std::vector<UnitResult>& untraced, const UnitResult& b, const System& sys,
             std::int64_t deadline_ns, Metrics* m);
  std::vector<std::vector<std::uint32_t>> RecordUnitSpans(const UnitResult& b,
                                                          std::vector<double>* late_us);
  void ReplayFrames(const UnitResult& b, const std::vector<std::vector<std::uint32_t>>& spans,
                    const System& sys, Replayer* rp);
  double CheckReplay(Replayer* rp) const;
  void ProbeRouter(const System& sys, const std::string& router_sock);
  FetchTimes LayerRounds(const System& sys, const std::string& router_sock, Replayer* rp,
                         std::int64_t deadline_ns);

  /// Counts a failed op (error reply, wrong count, answer outside eps).
  void Bad(const std::string& what);
  void Count(std::uint64_t ops) { attempted_.fetch_add(ops); }

  const Options& opts_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  std::vector<Tenant> tenants_;
  std::vector<std::vector<Frame>> frames_;  ///< per writer; Frame::stream = tenant
  std::vector<std::size_t> query_tenants_;
  std::vector<double> query_cdf_;
  std::vector<Client> clients_;  ///< per writer; also carries control ops
  std::optional<Client> query_client_;
  std::unique_ptr<std::atomic<bool>[]> has_data_;
  std::vector<int> system_cpus_;  ///< the CPU the whole run shares
  std::vector<std::vector<double>> final_answers_;
  std::uint64_t unit_ = 0;

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex log_mu_;
};

void Bench::Bad(const std::string& what) {
  if (failed_.fetch_add(1) < 20) {
    std::lock_guard<std::mutex> lock(log_mu_);
    std::fprintf(stderr, "perfbench_load: FAILED OP: %s\n", what.c_str());
  }
}

void Bench::Generate() {
  const std::uint64_t s = Mix64(opts_.seed);
  const auto add = [&](std::string name, std::uint64_t n, std::uint64_t salt,
                       Order order, int writer, bool partitioned) {
    Tenant t;
    t.name = std::move(name);
    t.input = MakeTenant(n, Mix64(s ^ salt), order);
    t.writer = writer;
    t.partitioned = partitioned;
    t.config.kind = mrl::server::SketchKind::kUnknownN;
    t.config.eps = kEps;
    t.config.delta = kDelta;
    t.config.seed = Mix64(s ^ (salt + 0x5EED));
    tenants_.push_back(std::move(t));
  };
  const std::string w = spec_.name;
  if (w == "ingest_bulk") {
    // 32Mi values: far past the sampling onset; the sketch ends at rate 64.
    add("bulk", 32 * kMi, 1, Order::kShuffled, 0, false);
  } else if (w == "tenants_mixed") {
    // 128 tenants; the tenant of Zipf rank r holds max(64Ki, 1Mi / r)
    // values, mostly below the sampling onset. The seed decides which
    // tenant gets which rank. The arrival order and the writer follow the
    // rank, so every seed ingests the same amount, in the same mix of
    // orders, split the same way between the writers.
    constexpr int kTenants = 128;
    const Order orders[] = {Order::kShuffled, Order::kSortedAsc,
                            Order::kSortedDesc, Order::kSawtooth};
    std::vector<int> rank(kTenants);
    for (int i = 0; i < kTenants; ++i) rank[i] = i;
    Rng rng(Mix64(s ^ 0x52414E4BULL));
    for (int i = kTenants; i > 1; --i) {
      std::swap(rank[i - 1], rank[rng.Below(static_cast<std::uint64_t>(i))]);
    }
    const auto length = [](int r) {
      return std::max<std::uint64_t>(64 * kKi, kMi / static_cast<std::uint64_t>(r + 1));
    };
    // Longest first, each rank to the writer with less work so far.
    std::vector<int> writer_of_rank(kTenants);
    std::uint64_t load[2] = {0, 0};
    for (int r = 0; r < kTenants; ++r) {
      writer_of_rank[r] = load[1] < load[0] ? 1 : 0;
      load[writer_of_rank[r]] += length(r);
    }
    for (int i = 0; i < kTenants; ++i) {
      // Writer c serves tenants of registry partition c, so each writer
      // connection lands on its own daemon shard.
      const int writer = writer_of_rank[rank[i]];
      std::string name;
      for (int x = 0;; ++x) {
        name = "m" + std::to_string(i) + "." + std::to_string(x);
        if (mrl::server::SketchRegistry::NameHash(name) % 2 ==
            static_cast<std::uint64_t>(writer)) {
          break;
        }
      }
      add(name, length(rank[i]), 100 + static_cast<std::uint64_t>(i),
          orders[rank[i] % 4], writer, false);
    }
  } else {
    add("rep", 4 * kMi, 1, Order::kShuffled, 0, false);
    add("part", 4 * kMi, 2, Order::kShuffled, 0, true);
  }

  frames_.assign(static_cast<std::size_t>(spec_.writers), {});
  for (int wr = 0; wr < spec_.writers; ++wr) {
    std::vector<std::size_t> mine;
    std::vector<std::uint64_t> lengths;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].writer == wr) {
        mine.push_back(t);
        lengths.push_back(tenants_[t].input.values.size());
      }
    }
    frames_[wr] = InterleaveFrames(lengths, spec_.frame_values,
                                   Mix64(s ^ static_cast<std::uint64_t>(wr)));
    for (Frame& f : frames_[wr]) f.stream = static_cast<std::uint32_t>(mine[f.stream]);
  }

  // The open loop queries the partitioned tenant when there is one, and
  // otherwise draws tenants by popularity (stream length).
  double total = 0;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (spec_.router && !tenants_[t].partitioned) continue;
    query_tenants_.push_back(t);
    total += static_cast<double>(tenants_[t].input.values.size());
    query_cdf_.push_back(total);
  }
  has_data_ = std::make_unique<std::atomic<bool>[]>(tenants_.size());
  final_answers_.assign(tenants_.size(), {});
}

Process Bench::LaunchRouter(const std::vector<std::string>& backends,
                            bool routed, const std::string& sock) {
  std::string list;
  for (const std::string& b : backends) {
    list += (list.empty() ? "unix:" : ",unix:") + b;
  }
  std::vector<std::string> argv = {opts_.bin_dir + "/mrlquant_router",
                                   "--uds=" + sock, "--backends=" + list};
  if (routed) {
    argv.push_back("--replicate");
    std::string part;
    for (const Tenant& t : tenants_) {
      if (t.partitioned) part += (part.empty() ? "" : ",") + t.name;
    }
    argv.push_back("--partition=" + part);
  }
  Process p = Process::Spawn(argv, opts_.run_dir + "/router.log", system_cpus_);
  WaitReady(&p, sock);
  return p;
}

System Bench::Launch(int index) {
  System sys;
  for (int d = 0; d < spec_.daemons; ++d) {
    const std::string sock = opts_.run_dir + "/d" + std::to_string(d) + "_" +
                             std::to_string(index) + ".sock";
    sys.daemons.push_back(Process::Spawn(
        {opts_.bin_dir + "/mrlquantd", "--uds=" + sock,
         "--shards=" + std::to_string(spec_.shards), "--max-tenants=1024"},
        opts_.run_dir + "/mrlquantd.log", system_cpus_));
    sys.daemon_socks.push_back(sock);
  }
  for (int d = 0; d < spec_.daemons; ++d) {
    WaitReady(&sys.daemons[d], sys.daemon_socks[d]);
  }
  if (spec_.router) {
    sys.router_sock = opts_.run_dir + "/r_" + std::to_string(index) + ".sock";
    sys.router = LaunchRouter(sys.daemon_socks, true, sys.router_sock);
  }
  return sys;
}

void Bench::Connect(const System& sys) {
  clients_.clear();
  for (int w = 0; w < spec_.writers; ++w) clients_.push_back(perfbench::Connect(sys.entry()));
  query_client_.emplace(perfbench::Connect(sys.entry()));
  // A daemon serves a connection on the shard owning the tenant of its
  // first frame. Pin the query connection to writer 0's shard, so that
  // every seed measures reads on the same shard.
  for (const Tenant& t : tenants_) {
    if (t.writer == 0) {
      if (!query_client_->Stats(t.name).ok() && !query_client_->connected()) {
        Fail("query connection lost");
      }
      break;
    }
  }
}

void Bench::CreateTenants() {
  // One pipelined flush per writer connection.
  std::vector<Client::PipelineReply> replies;
  for (int w = 0; w < spec_.writers; ++w) {
    std::vector<std::size_t> mine;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      if (tenants_[t].writer != w) continue;
      clients_[w].PipelineCreateSketch(tenants_[t].name, tenants_[t].config);
      mine.push_back(t);
    }
    Count(mine.size());
    const mrl::Status st = clients_[w].PipelineFlush(&replies);
    if (!st.ok()) Fail("create: " + st.ToString());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (!replies[i].status.ok()) {
        Fail("create " + tenants_[mine[i]].name + ": " + replies[i].status.ToString());
      }
    }
  }
  // Fresh-state guard: every unit starts from empty tenants. The system-wide
  // count covers every tenant at once (through the router, every backend).
  Count(1);
  mrl::Result<mrl::server::StatsReply> stats = clients_[0].Stats("");
  if (!stats.ok() || stats.value().total_count != 0) {
    Fail("fresh-state guard: the system holds values at the start of the timed phase");
  }
  for (std::size_t t = 0; t < tenants_.size(); ++t) has_data_[t].store(false);
}

void Bench::DeleteTenants() {
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    Count(1);
    const mrl::Status st = ClientFor(t).Delete(tenants_[t].name);
    if (!st.ok()) Bad("delete " + tenants_[t].name + ": " + st.ToString());
  }
}

void Bench::Writer(int w, std::vector<Window>* out) {
  if (::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), kWriterNice) != 0) {
    Fail("setpriority failed");
  }
  Client& c = clients_[w];
  const std::vector<Frame>& frames = frames_[w];
  std::vector<std::uint64_t> acked(tenants_.size(), 0);
  std::vector<Client::PipelineReply> replies;
  out->reserve(frames.size() / static_cast<std::size_t>(spec_.depth) + 1);
  for (std::size_t i = 0; i < frames.size();) {
    const std::size_t end =
        std::min(frames.size(), i + static_cast<std::size_t>(spec_.depth));
    Window win;
    win.first = i;
    win.last = end;
    replies.clear();
    win.start_ns = NowNs();
    if (spec_.depth == 1) {
      const Frame& f = frames[i];
      const Tenant& t = tenants_[f.stream];
      mrl::Result<std::uint64_t> r = c.AddBatch(
          t.name, std::span<const double>(t.input.values.data() + f.offset, f.count));
      Client::PipelineReply reply;
      reply.status = r.ok() ? mrl::Status::OK() : r.status();
      reply.count = r.ok() ? r.value() : 0;
      replies.push_back(reply);
      if (!c.connected()) Fail("transport failure: " + r.status().ToString());
    } else {
      for (std::size_t j = i; j < end; ++j) {
        const Frame& f = frames[j];
        const Tenant& t = tenants_[f.stream];
        c.PipelineAddBatch(t.name, std::span<const double>(
                                       t.input.values.data() + f.offset, f.count));
      }
      const mrl::Status st = c.PipelineFlush(&replies);
      if (!st.ok()) Fail("transport failure: " + st.ToString());
    }
    win.end_ns = NowNs();
    Count(end - i);
    for (std::size_t j = i; j < end; ++j) {
      const Frame& f = frames[j];
      const Client::PipelineReply& reply = replies[j - i];
      acked[f.stream] += f.count;
      win.values += f.count;
      if (!reply.status.ok()) {
        Bad("ADD_BATCH " + tenants_[f.stream].name + ": " + reply.status.ToString());
      } else if (reply.count != acked[f.stream]) {
        Bad("ADD_BATCH " + tenants_[f.stream].name + ": acked count " +
            std::to_string(reply.count) + " != values sent " +
            std::to_string(acked[f.stream]));
      }
      has_data_[f.stream].store(true, std::memory_order_release);
    }
    out->push_back(win);
    i = end;
  }
}

void Bench::QueryLoop(std::uint64_t unit, const std::atomic<bool>* stop,
                      std::vector<QuerySample>* out) {
  Client& c = *query_client_;
  Rng rng(Mix64(opts_.seed ^ Mix64(unit + 0x51)));
  std::vector<double> answers;
  // Query k is due at a uniformly random point in the first half of period
  // k: a fixed phase would alias with the frame cadence and make the
  // latency percentiles depend on it, and the half-period gap keeps
  // consecutive queries of the one connection from overlapping.
  const double period_ns = 1e9 / spec_.query_hz;
  const std::int64_t start = NowNs();
  for (std::int64_t k = 1; !stop->load(std::memory_order_acquire); ++k) {
    QuerySample q;
    q.due_ns = start + static_cast<std::int64_t>((static_cast<double>(k) + rng.Unit() / 2) *
                                                 period_ns);
    SleepUntil(q.due_ns);
    // Draw by popularity among tenants that already hold data.
    std::size_t t = tenants_.size();
    for (int attempt = 0; attempt < 64 && t == tenants_.size(); ++attempt) {
      const double x = rng.Unit() * query_cdf_.back();
      const std::size_t i = static_cast<std::size_t>(
          std::upper_bound(query_cdf_.begin(), query_cdf_.end(), x) -
          query_cdf_.begin());
      const std::size_t cand = query_tenants_[std::min(i, query_tenants_.size() - 1)];
      if (has_data_[cand].load(std::memory_order_acquire)) t = cand;
    }
    if (t == tenants_.size()) continue;  // nothing ingested yet
    q.sent_ns = NowNs();
    const mrl::Status st = c.QueryMulti(tenants_[t].name, kPhis, &answers);
    q.done_ns = NowNs();
    Count(1);
    if (!c.connected()) Fail("transport failure: " + st.ToString());
    if (!st.ok()) {
      Bad("QUERY_MULTI " + tenants_[t].name + ": " + st.ToString());
    } else if (answers.size() != kPhis.size() ||
               !std::is_sorted(answers.begin(), answers.end())) {
      Bad("QUERY_MULTI " + tenants_[t].name + ": answers not monotone in phi");
    }
    out->push_back(q);
  }
}

void Bench::FinalCheck() {
  std::vector<double> answers;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const Tenant& tn = tenants_[t];
    Client& c = ClientFor(t);
    Count(2);
    mrl::Result<mrl::server::StatsReply> stats = c.Stats(tn.name);
    if (!stats.ok() || stats.value().tenant_count != tn.input.values.size()) {
      Bad("STATS " + tn.name + ": count differs from values sent");
    }
    const mrl::Status st = c.QueryMulti(tn.name, kPhis, &answers);
    if (!st.ok() || answers.size() != kPhis.size()) {
      Bad("final QUERY_MULTI " + tn.name + ": " + st.ToString());
      continue;
    }
    for (std::size_t i = 0; i < kPhis.size(); ++i) {
      const double err = tn.input.sorted.RankError(kPhis[i], answers[i]);
      if (err > kEps) {
        Bad("final QUERY_MULTI " + tn.name + ": phi=" + std::to_string(kPhis[i]) +
            " rank error " + std::to_string(err) + " > eps");
      }
    }
    final_answers_[t] = answers;
  }
}

UnitResult Bench::RunUnit(bool keep_tenants) {
  if (unit_ > 0) CreateTenants();  // unit 0's tenants are part of set-up
  UnitResult r;
  r.windows.assign(static_cast<std::size_t>(spec_.writers), {});
  std::atomic<bool> stop{false};
  std::thread queries([&] { QueryLoop(unit_, &stop, &r.queries); });
  const std::int64_t t0 = NowNs();
  std::vector<std::thread> writers;
  for (int w = 0; w < spec_.writers; ++w) {
    writers.emplace_back([&, w] { Writer(w, &r.windows[w]); });
  }
  for (std::thread& t : writers) t.join();
  r.ingest_s = static_cast<double>(NowNs() - t0) * 1e-9;
  stop.store(true, std::memory_order_release);
  queries.join();
  for (const Tenant& t : tenants_) r.values += t.input.values.size();
  FinalCheck();
  if (!keep_tenants) DeleteTenants();
  ++unit_;
  return r;
}

/// ADD_BATCH round trips and open-loop QUERY_MULTI latencies (from the
/// due time), in microseconds, pooled over `units`.
void Latencies(const std::vector<UnitResult>& units, std::vector<double>* frame_us,
               std::vector<double>* query_us) {
  for (const UnitResult& u : units) {
    for (const auto& per_writer : u.windows) {
      for (const Window& w : per_writer) {
        frame_us->push_back(static_cast<double>(w.end_ns - w.start_ns) * 1e-3);
      }
    }
    for (const QuerySample& q : u.queries) {
      query_us->push_back(static_cast<double>(q.done_ns - q.due_ns) * 1e-3);
    }
  }
}

void Bench::EndToEndMetrics(const std::vector<double>& setup_s,
                      const std::vector<UnitResult>& units, double cpu_ns,
                      double rss_kib, Metrics* m) const {
  std::vector<double> rates;
  double values = 0;
  for (const UnitResult& u : units) {
    rates.push_back(static_cast<double>(u.values) / u.ingest_s);
    values += static_cast<double>(u.values);
  }
  std::vector<double> frame_us;
  std::vector<double> query_us;
  Latencies(units, &frame_us, &query_us);
  m->Set("setup_s", Median(setup_s), "s");
  m->Set("ingest_values_per_s", Median(rates), "1/s");
  m->Set("add_batch_p50_us", Percentile(frame_us, 0.5), "us");
  m->Set("query_p50_us", Percentile(query_us, 0.5), "us");
  m->Set("server_cpu_ns_per_value", cpu_ns / values, "ns/value");
  m->Set("peak_rss_mib", rss_kib / 1024.0, "MiB");
  const double attempted = static_cast<double>(attempted_.load());
  m->Set("ok_op_frac", (attempted - static_cast<double>(failed_.load())) / attempted,
         "frac");
  std::fprintf(stderr,
               "perfbench_load: %zu units, %zu add-batch samples, %zu query "
               "samples; values/s per unit:",
               units.size(), frame_us.size(), query_us.size());
  for (double r : rates) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\n");
}

int Bench::Run() {
  // CPU layout: the whole run shares the first CPU. The system's
  // processes and the reader run at normal priority, the writers at a lower
  // one, so the system and the reader take the CPU from a writer at once.
  // The load generator and the system take turns, so sharing costs them
  // little, and a hand-off between them wakes no idle CPU: on a shared host
  // the hypervisor's steal lands on CPUs that wake, and every extra busy CPU
  // made the figures less steady (perfbench/README.md has the numbers).
  const std::vector<int> cpus = AllowedCpus();
  system_cpus_ = {cpus.front()};
  PinToCpus(system_cpus_);
  Generate();
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  for (const Tenant& t : tenants_) fp = Fingerprint(fp, t.input);
  std::printf("stamp %s\n", StampJson().c_str());
  std::printf("inputs {\"workload\": \"%s\", \"seed\": %llu, \"fingerprint\": \"%016llx\"}\n",
              spec_.name, static_cast<unsigned long long>(opts_.seed),
              static_cast<unsigned long long>(fp));
  std::fflush(stdout);

  // Set-up: spawn → Ping answers → tenants created, several times; the
  // last launch is the one measured.
  std::vector<double> setup_s;
  System sys;
  for (int i = 0; i < kSetupRepeats; ++i) {
    clients_.clear();
    query_client_.reset();
    sys = System();
    const std::int64_t t0 = NowNs();
    sys = Launch(i);
    Connect(sys);
    CreateTenants();
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  const HostCpu host0 = ReadHostCpu();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(opts_.seconds * 1e9);
  Metrics metrics;
  if (!opts_.trace) {
    double cpu0 = 0;
    for (pid_t p : sys.pids()) cpu0 += static_cast<double>(ProcessCpuNs(p));
    std::vector<UnitResult> units;
    do {
      units.push_back(RunUnit(false));
    } while (NowNs() < deadline);
    double cpu1 = 0;
    double rss = 0;
    for (pid_t p : sys.pids()) {
      cpu1 += static_cast<double>(ProcessCpuNs(p));
      rss += static_cast<double>(ProcessPeakRssKib(p));
    }
    EndToEndMetrics(setup_s, units, cpu1 - cpu0, rss, &metrics);
  } else {
    // Untraced units for the first half of the run: the baseline of the
    // tracing overhead and the samples of the tail latencies.
    const std::int64_t half = deadline - static_cast<std::int64_t>(opts_.seconds * 0.5e9);
    std::vector<UnitResult> untraced;
    do {
      untraced.push_back(RunUnit(false));
    } while (NowNs() < half);
    UnitResult b = RunUnit(true);
    Trace(untraced, b, sys, deadline, &metrics);
  }
  clients_.clear();
  query_client_.reset();
  if (sys.router.Stop()) Fail("the router exited before the end of the run");
  for (Process& d : sys.daemons) {
    if (d.Stop()) Fail("a daemon exited before the end of the run");
  }

  // CPU time the hypervisor gave to other guests while this run measured:
  // a run with a large share is not a good sample of the program.
  const HostCpu host1 = ReadHostCpu();
  std::printf("host {\"steal_frac\": %.4f}\n",
              host1.total > host0.total
                  ? (host1.steal - host0.steal) / (host1.total - host0.total)
                  : 0.0);
  const std::uint64_t attempted = attempted_.load();
  const std::uint64_t failed = failed_.load();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The traced run.
//
// Untraced units run exactly like end-to-end units for the first half of
// the run; unit B then runs the same work again and its client calls
// become root spans (server.add_batch, or
// router.add_batch on the routed workload). The benchmark then replays
// every frame of unit B through each layer's public functions in-process,
// as children of that frame's span:
//
//   [router.add_batch]                 routed frame through the router
//     server.add_batch                 the frame's round trip to a daemon
//       server.protocol.encode         EncodeAddBatch (client side)
//         server.protocol.crc          Crc32 over the payload
//       server.protocol.decode         DecodeFrame+DecodeAddBatch+DecodeDoublesInto
//         server.protocol.crc          the daemon's CRC check
//       server.registry.add_batch      SketchRegistry::AddBatch
//         core.add_batch               UnknownNSketch::AddBatch on a twin sketch
//
// What no child accounts for (socket, event loop, copies) is the self time
// of server.add_batch: the unattributed remainder. Kernels, queries,
// partial export/merge and pings are then timed on their own until the
// run's time is up.

/// In-process twins of the system's sketches, fed the same frames.
struct Replayer {
  explicit Replayer(const std::vector<Tenant>& tenants)
      : registry([] {
          mrl::server::RegistryOptions o;
          o.max_tenants = 4096;
          return o;
        }()) {
    for (const Tenant& t : tenants) {
      std::vector<mrl::UnknownNSketch> sketches;
      std::vector<std::string> names;
      const int parts = t.partitioned ? kPartitions : 1;
      for (int p = 0; p < parts; ++p) {
        mrl::UnknownNOptions o;
        o.eps = t.config.eps;
        o.delta = t.config.delta;
        o.seed = t.config.seed + static_cast<std::uint64_t>(p);
        mrl::Result<mrl::UnknownNSketch> s = mrl::UnknownNSketch::Create(o);
        if (!s.ok()) Fail("twin sketch: " + s.status().ToString());
        sketches.push_back(std::move(s).value());
        names.push_back(t.partitioned ? t.name + ".p" + std::to_string(p) : t.name);
        TenantConfig c = t.config;
        c.seed = o.seed;
        if (!registry.Create(names.back(), c).ok()) Fail("registry create");
      }
      twins.push_back(std::move(sketches));
      targets.push_back(std::move(names));
    }
  }

  /// The slices a frame is split into on its way to the sketches: the
  /// router deals a partitioned tenant's batch out in contiguous slices.
  static std::vector<std::span<const double>> Slices(const Tenant& t,
                                                     std::span<const double> v) {
    if (!t.partitioned) return {v};
    std::vector<std::span<const double>> out;
    const std::size_t per = (v.size() + kPartitions - 1) / kPartitions;
    for (int p = 0; p < kPartitions; ++p) {
      const std::size_t begin = std::min(static_cast<std::size_t>(p) * per, v.size());
      out.push_back(v.subspan(begin, std::min(v.size(), begin + per) - begin));
    }
    return out;
  }

  void ReplayFrame(Tracer* tr, std::uint32_t parent, std::uint64_t req,
                   const Tenant& t, std::size_t ti, const Frame& f) {
    const std::span<const double> values(t.input.values.data() + f.offset, f.count);
    const std::vector<std::span<const double>> slices = Slices(t, values);
    const std::uint32_t enc = tr->Time("server.protocol.encode", parent, req, f.count, [&] {
      wire.clear();
      mrl::server::EncodeAddBatch(t.name, values, &wire);
    });
    const std::uint8_t* payload = wire.data() + mrl::server::kFrameHeaderSize;
    const std::size_t payload_len = wire.size() - mrl::server::kFrameHeaderSize;
    tr->Time("server.protocol.crc", enc, req, payload_len,
             [&] { crc_sink ^= mrl::server::Crc32(payload, payload_len); });
    const std::uint32_t dec = tr->Time("server.protocol.decode", parent, req, f.count, [&] {
      mrl::Result<mrl::server::FrameView> fv = mrl::server::DecodeFrame(wire.data(), wire.size());
      if (!fv.ok()) Fail("replay DecodeFrame: " + fv.status().ToString());
      mrl::Result<mrl::server::AddBatchRequest> rq = mrl::server::DecodeAddBatch(
          fv.value().payload, fv.value().payload_len);
      if (!rq.ok()) Fail("replay DecodeAddBatch: " + rq.status().ToString());
      if (!mrl::server::DecodeDoublesInto(rq.value().values_le, rq.value().count, true,
                                          &decoded)
               .ok()) {
        Fail("replay DecodeDoublesInto failed");
      }
    });
    tr->Time("server.protocol.crc", dec, req, payload_len,
             [&] { crc_sink ^= mrl::server::Crc32(payload, payload_len); });
    const std::uint32_t reg = tr->Time("server.registry.add_batch", parent, req, f.count, [&] {
      for (std::size_t p = 0; p < slices.size(); ++p) {
        if (!registry.AddBatch(targets[ti][p], slices[p]).ok()) {
          Fail("replay registry AddBatch failed");
        }
      }
    });
    tr->Time("core.add_batch", reg, req, f.count, [&] {
      for (std::size_t p = 0; p < slices.size(); ++p) twins[ti][p].AddBatch(slices[p]);
    });
    reply.clear();
    mrl::server::EncodeAddBatchOk(twins[ti][0].count(), &reply);
    wire_bytes += wire.size() + reply.size();
    wire_values += f.count;
  }

  /// The answers the system would give: a twin's QueryMany, or the §6
  /// merge of a partitioned tenant's partials.
  std::vector<double> Answers(const Tenant& t, std::size_t ti) {
    if (!t.partitioned) {
      mrl::Result<std::vector<double>> a = twins[ti][0].QueryMany(kPhis);
      if (!a.ok()) Fail("twin QueryMany: " + a.status().ToString());
      return a.value();
    }
    std::vector<mrl::PartialSummary> parts(kPartitions);
    for (int p = 0; p < kPartitions; ++p) {
      if (!twins[ti][p].ExportPartial(&parts[p]).ok()) Fail("ExportPartial failed");
    }
    mrl::Result<std::vector<double>> a =
        mrl::MergePartialQuantiles(parts, t.config.seed, kPhis);
    if (!a.ok()) Fail("MergePartialQuantiles: " + a.status().ToString());
    return a.value();
  }

  mrl::server::SketchRegistry registry;
  std::vector<std::vector<mrl::UnknownNSketch>> twins;  ///< per tenant
  std::vector<std::vector<std::string>> targets;        ///< registry names, per twin
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> reply;
  std::vector<double> decoded;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_values = 0;
  std::uint32_t crc_sink = 0;
};

std::vector<std::vector<std::uint32_t>> Bench::RecordUnitSpans(
    const UnitResult& b, std::vector<double>* late_us) {
  const char* rt_name = spec_.router ? "router.add_batch" : "server.add_batch";
  std::vector<std::vector<std::uint32_t>> spans(b.windows.size());
  for (std::size_t w = 0; w < b.windows.size(); ++w) {
    for (std::size_t i = 0; i < b.windows[w].size(); ++i) {
      const Window& win = b.windows[w][i];
      spans[w].push_back(tracer_.Record(rt_name, win.start_ns, win.end_ns, 0,
                                        (w << 32) | i, win.values));
    }
  }
  for (const QuerySample& q : b.queries) {
    tracer_.Record(spec_.router ? "router.query_multi" : "server.query_multi", q.sent_ns,
                   q.done_ns, 0, 0, kPhis.size());
    late_us->push_back(static_cast<double>(q.sent_ns - q.due_ns) * 1e-3);
  }
  return spans;
}

void Bench::ReplayFrames(const UnitResult& b,
                         const std::vector<std::vector<std::uint32_t>>& spans,
                         const System& sys, Replayer* rp) {
  // On the routed workload each routed frame is first sent straight to
  // daemon 0, as the same calls without the router hop: one ADD_BATCH, or
  // one per slice for the partitioned tenant, into tenants that mirror the
  // twins.
  std::optional<Client> direct;
  if (spec_.router) {
    direct.emplace(perfbench::Connect(sys.daemon_socks[0]));
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      for (std::size_t p = 0; p < rp->targets[t].size(); ++p) {
        TenantConfig c = tenants_[t].config;
        c.seed += p;
        if (!direct->CreateSketch("direct." + rp->targets[t][p], c).ok()) {
          Fail("create direct tenant");
        }
      }
    }
  }
  for (std::size_t w = 0; w < b.windows.size(); ++w) {
    for (std::size_t i = 0; i < b.windows[w].size(); ++i) {
      const Window& win = b.windows[w][i];
      const std::uint64_t req = (w << 32) | i;
      std::uint32_t parent = spans[w][i];
      if (direct) {
        const Frame& f = frames_[w][win.first];
        const Tenant& t = tenants_[f.stream];
        const std::vector<std::span<const double>> slices = Replayer::Slices(
            t, std::span<const double>(t.input.values.data() + f.offset, f.count));
        std::vector<std::string> names;
        for (const std::string& target : rp->targets[f.stream]) {
          names.push_back("direct." + target);
        }
        parent = tracer_.Time("server.add_batch", parent, req, f.count, [&] {
          for (std::size_t p = 0; p < slices.size(); ++p) {
            if (!direct->AddBatch(names[p], slices[p]).ok()) Fail("direct ADD_BATCH failed");
          }
        });
      }
      for (std::size_t j = win.first; j < win.last; ++j) {
        const Frame& f = frames_[w][j];
        rp->ReplayFrame(&tracer_, parent, req, tenants_[f.stream], f.stream, f);
      }
    }
  }
}

double Bench::CheckReplay(Replayer* rp) const {
  // The replay must reproduce the system's answers bit for bit; the
  // partitioned tenant's answer depends on the router's seeds, so it is
  // checked against the oracle only.
  double worst = 0;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const std::vector<double> ans = rp->Answers(tenants_[t], t);
    if (!tenants_[t].partitioned && ans != final_answers_[t]) {
      Fail("replay of " + tenants_[t].name + " diverged from the daemon's answers");
    }
    for (std::size_t i = 0; i < kPhis.size(); ++i) {
      worst = std::max(worst, tenants_[t].input.sorted.RankError(kPhis[i], ans[i]));
    }
  }
  return worst;
}

void Bench::ProbeRouter(const System& sys, const std::string& router_sock) {
  Client via = perfbench::Connect(router_sock);
  Client plain = perfbench::Connect(sys.daemon_socks[0]);
  TenantConfig c;
  if (!via.CreateSketch("probe", c).ok() || !plain.CreateSketch("probe.direct", c).ok()) {
    Fail("create probe tenants");
  }
  const std::vector<Frame>& frames = frames_[0];
  for (std::size_t i = 0; i < std::min<std::size_t>(frames.size(), 256); ++i) {
    const Frame& f = frames[i];
    const std::span<const double> v(tenants_[f.stream].input.values.data() + f.offset,
                                    f.count);
    const std::int64_t start = NowNs();
    if (!via.AddBatch("probe", v).ok()) Fail("probe ADD_BATCH via router failed");
    const std::int64_t end = NowNs();
    const std::uint32_t id = tracer_.Record("router.add_batch", start, end, 0, i, f.count);
    tracer_.Time("server.add_batch.direct", id, i, f.count, [&] {
      if (!plain.AddBatch("probe.direct", v).ok()) Fail("probe ADD_BATCH failed");
    });
  }
}

Bench::FetchTimes Bench::LayerRounds(const System& sys, const std::string& router_sock,
                                     Replayer* rp, std::int64_t deadline_ns) {
  Tracer& tr = tracer_;
  Client daemon_ping = perfbench::Connect(sys.daemon_socks[0]);
  Client router_ping = perfbench::Connect(router_sock);
  std::vector<Client> fetchers;
  for (const std::string& s : sys.daemon_socks) fetchers.push_back(perfbench::Connect(s));

  // Tenants whose sketches answer queries directly, largest first. The
  // fan-out fetch reads the partitioned tenant, else the largest; the merge
  // takes the partitioned tenant's three partials, else those of the three
  // largest tenants (ingest_bulk: its one tenant, three times).
  std::vector<std::size_t> direct_t;
  std::size_t fetch_t = 0;
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].partitioned) {
      fetch_t = t;
    } else {
      direct_t.push_back(t);
    }
  }
  std::stable_sort(direct_t.begin(), direct_t.end(), [&](std::size_t x, std::size_t y) {
    return tenants_[x].input.values.size() > tenants_[y].input.values.size();
  });
  std::vector<const mrl::UnknownNSketch*> merge_src;
  if (tenants_[fetch_t].partitioned) {
    for (const mrl::UnknownNSketch& s : rp->twins[fetch_t]) merge_src.push_back(&s);
  } else {
    fetch_t = direct_t[0];
    for (int p = 0; p < kPartitions; ++p) {
      merge_src.push_back(&rp->twins[direct_t[static_cast<std::size_t>(p) % direct_t.size()]][0]);
    }
  }

  // Kernel inputs: chunks of k values of the workload's streams; the merge
  // selects k targets over b such chunks, sorted, as one Collapse does.
  const mrl::UnknownNParams& params = rp->twins[direct_t[0]][0].params();
  const std::size_t k = params.k;
  const std::size_t nb = static_cast<std::size_t>(params.b);
  const auto chunk = [&](std::uint64_t i) {
    const Tenant& t = tenants_[direct_t[i % direct_t.size()]];
    const std::uint64_t off = (Mix64(i) % (t.input.values.size() / k)) * k;
    return std::span<const double>(t.input.values.data() + off, k);
  };
  mrl::SortScratch sort_scratch;
  mrl::MergeScratch merge_scratch;
  std::vector<double> buf(k);
  std::vector<std::vector<double>> runs(nb, std::vector<double>(k));
  std::vector<mrl::WeightedRun> wruns(nb);
  std::vector<mrl::Weight> targets(k);
  for (std::size_t j = 0; j < k; ++j) targets[j] = j * nb + (nb + 1) / 2;
  std::vector<double> picked(k);
  std::vector<mrl::KeyedPayload> pairs(kPhis.size());
  std::vector<double> answers;
  std::vector<std::uint8_t> blob;
  FetchTimes fetch;
  Rng rng(Mix64(opts_.seed ^ 0x54524143ULL));
  std::uint64_t seq = 0;
  constexpr int kMaxRounds = 200;
  for (int round = 0; round < kMaxRounds && (round == 0 || NowNs() < deadline_ns); ++round) {
    for (int i = 0; i < 32; ++i, ++seq) {
      const std::span<const double> c = chunk(seq);
      std::copy(c.begin(), c.end(), buf.begin());
      tr.Time("util.sort_values", 0, seq, k, [&] { mrl::SortValues(buf.data(), k, &sort_scratch); });
    }
    for (int i = 0; i < 8; ++i) {
      for (std::size_t r = 0; r < nb; ++r, ++seq) {
        const std::span<const double> c = chunk(seq);
        std::copy(c.begin(), c.end(), runs[r].begin());
        std::sort(runs[r].begin(), runs[r].end());
        wruns[r] = {runs[r].data(), k, 1};
      }
      tr.Time("util.merge", 0, seq, k * nb, [&] {
        mrl::SelectWeightedPositionsInto(wruns.data(), nb, targets.data(), k, &merge_scratch,
                                         picked.data());
      });
    }
    for (int i = 0; i < 8; ++i) {
      tr.Time("util.sort_pairs", 0, static_cast<std::uint64_t>(i), kPairsPerSpan, [&] {
        for (int rep = 0; rep < kPairsPerSpan; ++rep) {
          for (std::size_t q = 0; q < kPhis.size(); ++q) {
            pairs[q] = {kPhis[(q * 5) % kPhis.size()], q};
          }
          mrl::SortPairs(pairs.data(), pairs.size(), &sort_scratch);
        }
      });
    }
    for (int i = 0; i < 16; ++i) {
      const std::size_t t = direct_t[rng.Below(direct_t.size())];
      const std::uint32_t reg = tr.Time("server.registry.query", 0, t, kPhis.size(), [&] {
        if (!rp->registry.QueryMany(tenants_[t].name, kPhis, &answers).ok()) {
          Fail("replay registry QueryMany failed");
        }
      });
      tr.Time("core.query", reg, t, kPhis.size(), [&] {
        if (!rp->twins[t][0].QueryMany(kPhis).ok()) Fail("twin QueryMany failed");
      });
    }
    for (int i = 0; i < 16; ++i) {
      tr.Time("server.ping", 0, 0, 0, [&] {
        if (!daemon_ping.Ping().ok()) Fail("daemon Ping failed");
      });
      tr.Time("router.ping", 0, 0, 0, [&] {
        if (!router_ping.Ping().ok()) Fail("router Ping failed");
      });
    }
    for (int i = 0; i < 2; ++i) {
      double sum = 0;
      double mx = 0;
      for (std::size_t d = 0; d < fetchers.size(); ++d) {
        const std::int64_t start = NowNs();
        if (!fetchers[d].FetchSummary(tenants_[fetch_t].name, &blob).ok()) {
          Fail("FetchSummary failed");
        }
        const std::int64_t end = NowNs();
        tr.Record("router.fanout_fetch", start, end, 0, d, blob.size());
        sum += static_cast<double>(end - start) * 1e-3;
        mx = std::max(mx, static_cast<double>(end - start) * 1e-3);
      }
      fetch.sum_us.push_back(sum);
      fetch.max_us.push_back(mx);

      std::vector<mrl::PartialSummary> parts(merge_src.size());
      for (std::size_t p = 0; p < merge_src.size(); ++p) {
        tr.Time("core.export_partial", 0, p, 0, [&] {
          if (!merge_src[p]->ExportPartial(&parts[p]).ok()) Fail("ExportPartial failed");
        });
      }
      tr.Time("core.merge_partial", 0, 0, kPhis.size(), [&] {
        if (!mrl::MergePartialQuantiles(parts, 1, kPhis).ok()) Fail("MergePartialQuantiles failed");
      });
    }
  }
  return fetch;
}

void Bench::Trace(const std::vector<UnitResult>& untraced, const UnitResult& b, const System& sys,
                  std::int64_t deadline_ns, Metrics* m) {
  const Tracer& tr = tracer_;
  std::vector<double> late_us;
  const std::vector<std::vector<std::uint32_t>> spans = RecordUnitSpans(b, &late_us);
  Replayer rp(tenants_);
  ReplayFrames(b, spans, sys, &rp);
  const double worst_err = CheckReplay(&rp);
  // The router hop on the workloads that have none: a router in front of
  // the same daemons, probed with the workload's own frames.
  Process probe_router;
  std::string router_sock = sys.router_sock;
  if (!spec_.router) {
    router_sock = opts_.run_dir + "/probe_router.sock";
    probe_router = LaunchRouter(sys.daemon_socks, false, router_sock);
    ProbeRouter(sys, router_sock);
  }
  const FetchTimes fetch = LayerRounds(sys, router_sock, &rp, deadline_ns);
  if (probe_router.Stop()) Fail("the probe router exited early");

  const auto per_value = [&](const char* name) {
    const auto [self, units] = tr.SelfAndUnits(name);
    return self / units;
  };
  const auto med_us = [&](const char* name) { return Median(tr.SelfNs(name)) * 1e-3; };
  m->Set("util.sort_values_ns", Median(tr.SelfNs("util.sort_values")), "ns");
  m->Set("util.merge_ns", Median(tr.SelfNs("util.merge")), "ns");
  m->Set("util.sort_pairs_ns", Median(tr.SelfNs("util.sort_pairs")) / kPairsPerSpan, "ns");
  m->Set("core.add_batch_ns_per_value", per_value("core.add_batch"), "ns/value");
  m->Set("core.query_us", med_us("core.query"), "us");
  double collapses = 0;
  double leaves = 0;
  double rate = 0;
  double memory = 0;
  for (const auto& per_tenant : rp.twins) {
    for (const mrl::UnknownNSketch& s : per_tenant) {
      collapses += static_cast<double>(s.tree_stats().num_collapses);
      leaves += static_cast<double>(s.tree_stats().leaves_created);
      rate = std::max(rate, static_cast<double>(s.sampling_rate()));
      memory += static_cast<double>(s.MemoryElements() * sizeof(double));
    }
  }
  m->Set("core.collapses", collapses, "count");
  m->Set("core.leaves", leaves, "count");
  m->Set("core.sampling_rate", rate, "x");
  m->Set("core.memory_bytes", memory, "B");
  m->Set("core.rank_error_over_eps", worst_err / kEps, "ratio");
  m->Set("core.export_partial_us", med_us("core.export_partial"), "us");
  m->Set("core.merge_partial_us", med_us("core.merge_partial"), "us");
  m->Set("server.protocol.crc_ns_per_byte", per_value("server.protocol.crc"), "ns/B");
  m->Set("server.protocol.encode_ns_per_value", per_value("server.protocol.encode"), "ns/value");
  m->Set("server.protocol.decode_ns_per_value", per_value("server.protocol.decode"), "ns/value");
  m->Set("server.protocol.wire_bytes_per_value",
         static_cast<double>(rp.wire_bytes) / static_cast<double>(rp.wire_values), "B/value");
  m->Set("server.registry.add_batch_ns_per_value", per_value("server.registry.add_batch"),
         "ns/value");
  m->Set("server.registry.query_us", med_us("server.registry.query"), "us");
  m->Set("server.ping_p50_us", med_us("server.ping"), "us");
  m->Set("server.add_batch_p50_us", Median(tr.DurationNs("server.add_batch")) * 1e-3, "us");
  m->Set("server.frame_self_us", med_us("server.add_batch"), "us");
  m->Set("router.ping_p50_us", med_us("router.ping"), "us");
  m->Set("router.add_batch_overhead_us", med_us("router.add_batch"), "us");
  m->Set("router.fanout_fetch_us", Median(fetch.sum_us), "us");
  m->Set("router.fanout_fetch_max_us", Median(fetch.max_us), "us");
  m->Set("bench.generator_late_p99_us", Percentile(late_us, 0.99), "us");
  std::vector<double> untraced_s;
  for (const UnitResult& u : untraced) untraced_s.push_back(u.ingest_s);
  m->Set("bench.trace_overhead_frac", b.ingest_s / Median(untraced_s) - 1.0, "frac");
  // The end-to-end tails, from the untraced units. They carry no bound: on
  // a shared host the 1% tail follows the hypervisor's steal.
  std::vector<double> frame_us;
  std::vector<double> query_us;
  Latencies(untraced, &frame_us, &query_us);
  m->Set("add_batch_p99_us", Percentile(frame_us, 0.99), "us");
  m->Set("query_p99_us", Percentile(query_us, 0.99), "us");

  std::fprintf(stderr, "perfbench_load: ingest self time by layer (unit B)\n");
  for (const char* name : {"router.add_batch", "server.add_batch", "server.protocol.encode",
                           "server.protocol.decode", "server.protocol.crc",
                           "server.registry.add_batch", "core.add_batch"}) {
    const std::vector<double> self = tr.SelfNs(name);
    double sum = 0;
    for (double x : self) sum += x;
    std::fprintf(stderr, "  %-28s %8zu spans %12.3f ms self\n", name, self.size(), sum * 1e-6);
  }
  if (!opts_.spans_path.empty()) tr.WriteJsonLines(opts_.spans_path);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

int Run(const Options& options) {
  ::mkdir(options.run_dir.c_str(), 0755);
  Bench bench(options, *FindSpec(options.workload));
  return bench.Run();
}

}  // namespace perfbench
