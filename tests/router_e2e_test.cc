// End-to-end tests for the distributed tier (src/router/): an in-process
// Router fronting three real mrlquantd processes over Unix sockets.
// Covers consistent-hash forwarding, the Section 6 fan-out merge for
// partitioned tenants, replicated writes, SNAPSHOT→RESTORE replica
// resync, and the acceptance scenario: SIGKILL the owning backend
// mid-ingest, the router fails the tenant over to its replica, and
// subsequent queries stay within the configured eps of the exact
// baseline. Forwarding is pinned byte for byte: sketches fed through the
// router equal sketches fed the same frames directly, and hostile frames
// get the answer the daemon itself gives.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "router/router.h"
#include "server/client.h"
#include "util/random.h"

namespace mrl {
namespace router {
namespace {

using server::Client;
using server::TenantConfig;

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

double RankOf(const std::vector<Value>& sorted, Value answer) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), answer);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

constexpr int kBackends = 3;

/// One raw connection: sends arbitrary bytes and reads back one response
/// frame, so hostile frames (bad CRC included, whose reply no Client
/// accepts) can be compared between the router and a daemon.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// The reply's echoed request type, status code and message, as
  /// "type/code/message"; empty when no well-formed reply came back.
  std::string Exchange(const std::vector<std::uint8_t>& frame) {
    if (fd_ < 0 || !IoFull(const_cast<std::uint8_t*>(frame.data()),
                           frame.size(), /*write=*/true)) {
      return "";
    }
    std::uint8_t prefix[4];
    if (!IoFull(prefix, sizeof(prefix), /*write=*/false)) return "";
    const std::uint32_t body_len =
        prefix[0] | (prefix[1] << 8) | (prefix[2] << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    std::vector<std::uint8_t> body(body_len);
    if (!IoFull(body.data(), body.size(), /*write=*/false)) return "";
    Result<server::FrameView> view =
        server::DecodeFrameBody(body.data(), body.size());
    if (!view.ok() || view.value().payload_len < 4) return "";
    const std::uint8_t* p = view.value().payload;
    const std::size_t msg_len = p[2] | (p[3] << 8);
    if (4 + msg_len > view.value().payload_len) return "";
    return std::to_string(p[0]) + "/" + std::to_string(p[1]) + "/" +
           std::string(reinterpret_cast<const char*>(p + 4), msg_len);
  }

 private:
  bool IoFull(std::uint8_t* buf, std::size_t n, bool write) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t r = write ? ::send(fd_, buf + done, n - done, MSG_NOSIGNAL)
                              : ::recv(fd_, buf + done, n - done, 0);
      if (r <= 0) return false;
      done += static_cast<std::size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

/// An ADD_BATCH frame whose count field says `count` whatever the values.
std::vector<std::uint8_t> AddBatchFrame(std::string_view name,
                                        std::uint64_t count,
                                        const std::vector<Value>& values) {
  std::vector<std::uint8_t> out;
  server::FrameBuilder frame(server::MsgType::kAddBatch, &out);
  frame.PutName(name);
  frame.PutU64(count);
  for (const Value v : values) frame.PutDouble(v);
  frame.Finish();
  return out;
}

/// A CREATE_SKETCH frame with a raw kind byte (the encoder only takes live
/// kinds) and the reserved slot as an older encoder wrote it.
std::vector<std::uint8_t> CreateFrame(std::string_view name,
                                      std::uint8_t kind) {
  std::vector<std::uint8_t> out;
  server::FrameBuilder frame(server::MsgType::kCreateSketch, &out);
  frame.PutName(name);
  frame.PutU8(kind);
  frame.PutDouble(0.01);  // eps
  frame.PutDouble(1e-4);  // delta
  frame.PutU32(4);        // reserved slot (the old shard count)
  frame.PutU64(1);        // seed
  frame.Finish();
  return out;
}

class RouterE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        "/tmp/mrlq_router_" + std::to_string(::getpid()) + "_" +
        std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xFFFF);
    router_uds_ = base + "_front.sock";
    for (int i = 0; i <= kBackends; ++i) {
      backend_uds_[i] = base + "_b" + std::to_string(i) + ".sock";
    }
    for (int i = 0; i < kBackends; ++i) {
      backend_pid_[i] = SpawnBackend(i);
      ASSERT_GT(backend_pid_[i], 0);
    }
    for (int i = 0; i < kBackends; ++i) WaitForBackend(i);
  }

  void TearDown() override {
    router_.reset();
    for (int i = 0; i <= kBackends; ++i) KillBackend(i);
    ::unlink(router_uds_.c_str());
    for (int i = 0; i <= kBackends; ++i) {
      ::unlink(backend_uds_[i].c_str());
    }
  }

  pid_t SpawnBackend(int i) {
    const std::string uds_flag = "--uds=" + backend_uds_[i];
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    return pid;
  }

  void WaitForBackend(int i) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Result<Client> client = Client::ConnectUnix(backend_uds_[i]);
      if (client.ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    FAIL() << "backend " << i << " did not come up on " << backend_uds_[i];
  }

  void KillBackend(int i) {
    if (backend_pid_[i] <= 0) return;
    ::kill(backend_pid_[i], SIGKILL);
    int wstatus = 0;
    ::waitpid(backend_pid_[i], &wstatus, 0);
    backend_pid_[i] = -1;
  }

  void RestartBackend(int i) {
    backend_pid_[i] = SpawnBackend(i);
    ASSERT_GT(backend_pid_[i], 0);
    WaitForBackend(i);
  }

  void StartRouter(RouterOptions options) {
    options.uds_path = router_uds_;
    for (int i = 0; i < kBackends; ++i) {
      options.backends.push_back("unix:" + backend_uds_[i]);
    }
    // Fast health cadence so failure detection and resync happen within
    // test-sized windows.
    options.health_interval_ms = 50;
    options.rpc_timeout_ms = 2000;
    options.fail_threshold = 2;
    Result<std::unique_ptr<Router>> router = Router::Create(std::move(options));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(router).value();
  }

  Client ConnectRouter() {
    Result<Client> client = Client::ConnectUnix(router_uds_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  Client ConnectBackend(int i) {
    Result<Client> client = Client::ConnectUnix(backend_uds_[i]);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// A daemon outside the router's fleet (index kBackends), fed directly
  /// as the reference the routed backends are compared against.
  Client StartDirectDaemon() {
    backend_pid_[kBackends] = SpawnBackend(kBackends);
    EXPECT_GT(backend_pid_[kBackends], 0);
    WaitForBackend(kBackends);
    return ConnectBackend(kBackends);
  }

  std::vector<std::uint8_t> SnapshotOf(Client& client, std::string_view name) {
    std::vector<std::uint8_t> blob;
    const Status status = client.Snapshot(name, &blob);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    return blob;
  }

  std::string router_uds_;
  std::string backend_uds_[kBackends + 1];
  pid_t backend_pid_[kBackends + 1] = {-1, -1, -1, -1};
  std::unique_ptr<Router> router_;
};

TEST_F(RouterE2eTest, RoutedBasicOpsAndPing) {
  StartRouter(RouterOptions{});
  Client client = ConnectRouter();

  // PING is answered by the router itself.
  ASSERT_TRUE(client.Ping().ok());

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 60000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 7;

  // Several tenants so the ring actually spreads them around.
  const std::vector<std::string> tenants = {"alpha", "bravo", "charlie",
                                            "delta", "echo"};
  for (const std::string& name : tenants) {
    ASSERT_TRUE(client.CreateSketch(name, config).ok()) << name;
  }
  bool spread = false;
  for (const std::string& name : tenants) {
    if (router_->OwnerIndexOf(name) != router_->OwnerIndexOf(tenants[0])) {
      spread = true;
    }
  }
  EXPECT_TRUE(spread) << "all tenants landed on one backend";

  std::vector<Value> data = UniformStream(kN, 11);
  mrl::Result<std::uint64_t> count =
      client.AddBatch(tenants[0], std::span<const Value>(data));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), kN);

  std::sort(data.begin(), data.end());
  const std::vector<double> phis = {0.1, 0.5, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti(tenants[0], phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(data, answers[i]), phis[i], kEps) << "phi=" << phis[i];
  }

  // Stats through the router: named hits the owner, empty aggregates.
  mrl::Result<server::StatsReply> stats = client.Stats(tenants[0]);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().tenant_present);
  EXPECT_EQ(stats.value().tenant_count, kN);
  mrl::Result<server::StatsReply> global = client.Stats("");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.value().num_tenants, tenants.size());
  EXPECT_EQ(global.value().total_count, kN);

  // FETCH_SUMMARY forwards and returns a decodable partial summary.
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(client.FetchSummary(tenants[0], &blob).ok());
  EXPECT_FALSE(blob.empty());

  ASSERT_TRUE(client.Delete(tenants[0]).ok());
  EXPECT_FALSE(client.Query(tenants[0], 0.5).ok());
}

TEST_F(RouterE2eTest, PartitionedTenantFanOutMerge) {
  RouterOptions options;
  options.partitioned = {"wide"};
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.05;
  constexpr std::size_t kN = 90000;
  constexpr std::size_t kBatch = 9000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 3;
  ASSERT_TRUE(client.CreateSketch("wide", config).ok());

  std::vector<Value> data = UniformStream(kN, 17);
  for (std::size_t i = 0; i < kN; i += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "wide", std::span<const Value>(data.data() + i, kBatch));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
  }

  // Every backend holds a real partition of the data.
  for (int i = 0; i < kBackends; ++i) {
    Result<Client> direct = Client::ConnectUnix(backend_uds_[i]);
    ASSERT_TRUE(direct.ok());
    mrl::Result<server::StatsReply> stats = direct.value().Stats("wide");
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().tenant_present) << "backend " << i;
    EXPECT_GT(stats.value().tenant_count, 0u) << "backend " << i;
  }

  // Named stats aggregate to the full stream length across partitions.
  mrl::Result<server::StatsReply> stats = client.Stats("wide");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);

  // Queries fan out FETCH_SUMMARY and merge with the Section 6 rules.
  std::sort(data.begin(), data.end());
  const std::vector<double> phis = {0.05, 0.25, 0.5, 0.75, 0.95};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("wide", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(data, answers[i]), phis[i], 2 * kEps)
        << "phi=" << phis[i];
  }

  const mrl::Result<double> median = client.Query("wide", 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(RankOf(data, median.value()), 0.5, 2 * kEps);
}

// The acceptance scenario: replication on, SIGKILL the owning backend in
// the middle of the ingest stream, keep writing — the router promotes the
// replica within the health-check window — and final quantiles stay within
// the configured eps of the exact sorted baseline.
TEST_F(RouterE2eTest, FailoverUnderSigkillKeepsAccuracy) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 100000;
  constexpr std::size_t kBatch = 5000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 19;
  ASSERT_TRUE(client.CreateSketch("t", config).ok());

  const int owner = router_->OwnerIndexOf("t");
  const int replica = router_->ReplicaIndexOf("t");
  ASSERT_GE(replica, 0);
  ASSERT_NE(owner, replica);

  const std::vector<Value> data = UniformStream(kN, 29);
  std::size_t sent = 0;
  for (; sent < kN / 2; sent += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "t", std::span<const Value>(data.data() + sent, kBatch));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
  }

  // Kill the primary cold: no shutdown handler runs, connections die.
  KillBackend(owner);

  // Keep ingesting. The first write after the kill rides the failover
  // retry inside the router, so the client never sees an error.
  for (; sent < kN; sent += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "t", std::span<const Value>(data.data() + sent, kBatch));
    ASSERT_TRUE(count.ok()) << "batch at " << sent << ": "
                            << count.status().ToString();
  }

  EXPECT_TRUE(router_->failed_over("t"));

  // The health loop marks the dead backend down within its window.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (router_->backend_state(owner) == BackendState::kDown) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(router_->backend_state(owner), BackendState::kDown);

  // Quantiles served from the replica cover the WHOLE stream (the replica
  // mirrored every acknowledged batch) within the configured eps.
  std::vector<Value> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> phis = {0.1, 0.25, 0.5, 0.75, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("t", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(sorted, answers[i]), phis[i], kEps)
        << "phi=" << phis[i];
  }

  // The replica holds every element the client was acknowledged for.
  mrl::Result<server::StatsReply> stats = client.Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);
}

// Replica resync: kill the REPLICA, write through (the mirror misses →
// dirty), restart the replica, let the health thread ship a
// SNAPSHOT→RESTORE, then kill the primary — the freshly resynced replica
// must serve the full stream.
TEST_F(RouterE2eTest, ReplicaResyncThenFailover) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 60000;
  constexpr std::size_t kBatch = 5000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 23;
  ASSERT_TRUE(client.CreateSketch("r", config).ok());

  const int owner = router_->OwnerIndexOf("r");
  const int replica = router_->ReplicaIndexOf("r");
  ASSERT_GE(replica, 0);

  const std::vector<Value> data = UniformStream(kN, 31);
  std::size_t sent = 0;
  for (; sent < kN / 3; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }

  // Replica goes away; the next batches miss their mirror.
  KillBackend(replica);
  for (; sent < (2 * kN) / 3; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }

  // Replica returns empty; the health thread resyncs it from the primary.
  RestartBackend(replica);
  bool resynced = false;
  for (int attempt = 0; attempt < 200 && !resynced; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Result<Client> direct = Client::ConnectUnix(backend_uds_[replica]);
    if (!direct.ok()) continue;
    mrl::Result<server::StatsReply> stats = direct.value().Stats("r");
    resynced = stats.ok() && stats.value().tenant_present &&
               stats.value().tenant_count >= sent;
  }
  ASSERT_TRUE(resynced) << "replica was not resynced from the primary";

  // Finish the stream (mirrored again), then lose the primary for good.
  for (; sent < kN; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }
  KillBackend(owner);

  std::vector<Value> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> phis = {0.1, 0.5, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("r", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_NEAR(RankOf(sorted, answers[i]), phis[i], kEps)
        << "phi=" << phis[i];
  }
  mrl::Result<server::StatsReply> stats = client.Stats("r");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);
}

// The router forwards a replicated tenant's frames verbatim and slices a
// partitioned tenant's batches on their wire bytes. Neither may change
// sketch state: every routed backend must hold the very checkpoint a
// daemon fed the same frames directly holds.
TEST_F(RouterE2eTest, ForwardedAndSlicedFramesLeaveIdenticalSketches) {
  RouterOptions options;
  options.replicate = true;
  options.partitioned = {"wide"};
  StartRouter(std::move(options));
  Client client = ConnectRouter();
  Client direct = StartDirectDaemon();

  // eps = 0.05 starts sampling early, so a wrong seed would show.
  TenantConfig config;
  config.eps = 0.05;
  config.seed = 41;
  ASSERT_TRUE(client.CreateSketch("rep", config).ok());
  ASSERT_TRUE(client.CreateSketch("wide", config).ok());
  ASSERT_TRUE(direct.CreateSketch("rep", config).ok());
  for (int i = 0; i < kBackends; ++i) {
    TenantConfig part = config;
    part.seed += static_cast<std::uint64_t>(i) * kPartitionSeedStride;
    ASSERT_TRUE(direct.CreateSketch("wide" + std::to_string(i), part).ok());
  }

  // Uneven batch sizes, including ones that leave trailing slices empty.
  const std::vector<Value> data = UniformStream(150000, 43);
  const std::size_t sizes[] = {7001, 1, 2, 5000, 12288, 3, 999};
  std::size_t sent = 0;
  for (std::size_t b = 0; sent < data.size(); ++b) {
    const std::size_t n = std::min(sizes[b % 7], data.size() - sent);
    const std::span<const Value> batch(data.data() + sent, n);
    sent += n;
    mrl::Result<std::uint64_t> rep = client.AddBatch("rep", batch);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep.value(), sent);
    mrl::Result<std::uint64_t> wide = client.AddBatch("wide", batch);
    ASSERT_TRUE(wide.ok()) << wide.status().ToString();
    EXPECT_EQ(wide.value(), sent);
    ASSERT_TRUE(direct.AddBatch("rep", batch).ok());
    // The router's slicing: contiguous, ceil(n / backends) per backend.
    const std::size_t per = (n + kBackends - 1) / kBackends;
    for (int i = 0; i < kBackends; ++i) {
      const std::size_t begin = std::min(i * per, n);
      const std::size_t end = std::min(n, begin + per);
      ASSERT_TRUE(direct
                      .AddBatch("wide" + std::to_string(i),
                                batch.subspan(begin, end - begin))
                      .ok());
    }
  }

  const std::vector<std::uint8_t> want = SnapshotOf(direct, "rep");
  ASSERT_FALSE(want.empty());
  Client owner = ConnectBackend(router_->OwnerIndexOf("rep"));
  Client replica = ConnectBackend(router_->ReplicaIndexOf("rep"));
  EXPECT_EQ(SnapshotOf(owner, "rep"), want) << "owner";
  EXPECT_EQ(SnapshotOf(replica, "rep"), want) << "replica";
  EXPECT_EQ(SnapshotOf(client, "rep"), want) << "reply through the router";
  for (int i = 0; i < kBackends; ++i) {
    Client backend = ConnectBackend(i);
    EXPECT_EQ(SnapshotOf(backend, "wide"),
              SnapshotOf(direct, "wide" + std::to_string(i)))
        << "partition " << i;
  }
}

// Hostile frames through the router get exactly the daemon's answer for the
// same bytes, and change no sketch anywhere.
TEST_F(RouterE2eTest, HostileFramesGetTheDaemonsAnswer) {
  RouterOptions options;
  options.replicate = true;
  options.partitioned = {"wide"};
  StartRouter(std::move(options));
  Client client = ConnectRouter();
  Client direct = StartDirectDaemon();
  TenantConfig config;
  config.seed = 5;
  for (const char* name : {"rep", "wide"}) {
    ASSERT_TRUE(client.CreateSketch(name, config).ok());
    ASSERT_TRUE(direct.CreateSketch(name, config).ok());
  }
  const std::vector<Value> data = UniformStream(3000, 47);
  ASSERT_TRUE(client.AddBatch("rep", data).ok());
  ASSERT_TRUE(client.AddBatch("wide", data).ok());

  const auto counts = [&] {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < kBackends; ++i) {
      Client backend = ConnectBackend(i);
      for (const char* name : {"rep", "wide"}) {
        mrl::Result<server::StatsReply> stats = backend.Stats(name);
        out.push_back(stats.ok() ? stats.value().tenant_count : 0);
      }
    }
    return out;
  };
  const std::vector<std::uint64_t> before = counts();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::uint8_t> bad_crc = AddBatchFrame("rep", 3, {1, 2, 3});
  bad_crc.back() ^= 0x01;
  std::vector<Value> nan_last = data;
  nan_last.back() = nan;  // lands in the partitioned batch's last slice
  std::vector<std::uint8_t> response;
  server::EncodeEmptyOk(server::MsgType::kPing, &response);
  const std::vector<std::vector<std::uint8_t>> hostile = {
      bad_crc,
      response,
      AddBatchFrame("rep", 5, {1, 2, 3, 4}),
      AddBatchFrame("wide", 5, {1, 2, 3, 4}),
      AddBatchFrame("bad/name", 2, {1, 2}),
      AddBatchFrame("rep", 3, {1, nan, 2}),
      AddBatchFrame("wide", nan_last.size(), nan_last),
      // The retired sharded kind, on the forwarded and the partitioned path.
      CreateFrame("legacy", server::kRetiredShardedKind),
      CreateFrame("wide", server::kRetiredShardedKind),
  };
  RawConn via_router(router_uds_);
  RawConn via_daemon(backend_uds_[kBackends]);
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const std::string want = via_daemon.Exchange(hostile[i]);
    ASSERT_FALSE(want.empty()) << "frame " << i;
    EXPECT_NE(want.rfind("2/0/", 0), 0u) << "frame " << i << " accepted";
    EXPECT_EQ(via_router.Exchange(hostile[i]), want) << "frame " << i;
  }
  EXPECT_EQ(counts(), before);
  const std::string retired =
      "1/" + std::to_string(static_cast<int>(StatusCode::kInvalidArgument)) +
      "/" + server::CheckSketchKind(server::kRetiredShardedKind).message();
  EXPECT_EQ(via_router.Exchange(CreateFrame("legacy", 1)), retired);
  EXPECT_EQ(via_router.Exchange(CreateFrame("wide", 1)), retired);
  // Both connections stay usable after every refusal.
  EXPECT_EQ(via_router.Exchange(AddBatchFrame("rep", 1, {0.5})), "2/0/");
  EXPECT_TRUE(client.Ping().ok());
}

}  // namespace
}  // namespace router
}  // namespace mrl
