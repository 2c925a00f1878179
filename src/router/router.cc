#include "router/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace mrl {
namespace router {

namespace {

using server::Client;
using server::FrameView;
using server::MsgType;
using server::TenantConfig;

constexpr int kListenBacklog = 128;
/// Warm connections kept per backend. Beyond this, surplus connections are
/// simply closed on release — a burst dials extra sockets, steady state
/// reuses the pool.
constexpr std::size_t kMaxPooledConnections = 8;

Status StatusFromErrno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

bool WriteFull(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Parses "unix:PATH" or dotted-quad "HOST:PORT" into the Backend fields.
Status ParseBackendAddress(const std::string& address, bool* is_unix,
                           std::string* path_or_host, std::uint16_t* port) {
  if (address.rfind("unix:", 0) == 0) {
    *is_unix = true;
    *path_or_host = address.substr(5);
    if (path_or_host->empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + address +
                                     "'");
    }
    return Status::OK();
  }
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument(
        "backend address must be unix:PATH or HOST:PORT, got '" + address +
        "'");
  }
  char* end = nullptr;
  const long parsed = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || parsed < 1 || parsed > 65535) {
    return Status::InvalidArgument("bad port in backend address '" + address +
                                   "'");
  }
  *is_unix = false;
  *path_or_host = address.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return Status::OK();
}

/// The config a CREATE_SKETCH or RESTORE frame carries.
Status DecodeConfig(const FrameView& frame, TenantConfig* config) {
  if (frame.type == MsgType::kCreateSketch) {
    Result<server::CreateSketchRequest> req =
        server::DecodeCreateSketch(frame.payload, frame.payload_len);
    if (!req.ok()) return req.status();
    *config = req.value().config;
    return Status::OK();
  }
  Result<server::RestoreRequest> req =
      server::DecodeRestore(frame.payload, frame.payload_len);
  if (!req.ok()) return req.status();
  *config = req.value().config;
  return Status::OK();
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.backends, options_.vnodes),
      health_(options_.backends.size(), options_.fail_threshold) {}

Result<std::unique_ptr<Router>> Router::Create(RouterOptions options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (options.uds_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (options.replicate && options.backends.size() < 2) {
    return Status::InvalidArgument(
        "replication needs at least two backends");
  }
  std::unique_ptr<Router> router(new Router(std::move(options)));
  MRL_RETURN_IF_ERROR(router->Start());
  return router;
}

Status Router::Start() {
  backends_.reserve(options_.backends.size());
  for (const std::string& address : options_.backends) {
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    MRL_RETURN_IF_ERROR(ParseBackendAddress(address, &backend->is_unix,
                                            &backend->path_or_host,
                                            &backend->port));
    backends_.push_back(std::move(backend));
  }

  if (!options_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, options_.uds_path.c_str(),
                options_.uds_path.size() + 1);
    ::unlink(options_.uds_path.c_str());
    uds_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (uds_listen_fd_ < 0) return StatusFromErrno("socket(AF_UNIX)");
    if (::bind(uds_listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(uds_listen_fd_, kListenBacklog) != 0) {
      const Status status = StatusFromErrno("bind/listen(AF_UNIX)");
      ::close(uds_listen_fd_);
      uds_listen_fd_ = -1;
      return status;
    }
    bound_uds_path_ = options_.uds_path;
  }

  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listen_fd_ < 0) return StatusFromErrno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(tcp_listen_fd_, kListenBacklog) != 0) {
      const Status status = StatusFromErrno("bind/listen(AF_INET)");
      ::close(tcp_listen_fd_);
      tcp_listen_fd_ = -1;
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }

  running_.store(true, std::memory_order_release);
  if (uds_listen_fd_ >= 0) {
    acceptors_.emplace_back(&Router::AcceptLoop, this, uds_listen_fd_);
  }
  if (tcp_listen_fd_ >= 0) {
    acceptors_.emplace_back(&Router::AcceptLoop, this, tcp_listen_fd_);
  }
  health_thread_ = std::thread(&Router::HealthLoop, this);
  return Status::OK();
}

Router::~Router() { Stop(); }

void Router::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(health_mu_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();

  // shutdown() wakes the blocking accept(2); the loops see running_ false
  // and exit. The fds are closed after the acceptors are gone.
  if (uds_listen_fd_ >= 0) ::shutdown(uds_listen_fd_, SHUT_RDWR);
  if (tcp_listen_fd_ >= 0) ::shutdown(tcp_listen_fd_, SHUT_RDWR);
  for (std::thread& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (!bound_uds_path_.empty()) {
    ::unlink(bound_uds_path_.c_str());
    bound_uds_path_.clear();
  }

  // Wake every connection thread mid-read. Entries are removed from
  // conn_fds_ (under conns_mu_) before their fd is closed, so a shutdown
  // here can never hit a recycled descriptor.
  std::vector<std::thread> conns;
  {
    MutexLock lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
}

void Router::AcceptLoop(int listen_fd) {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure (EMFILE, ECONNABORTED, ...)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    MutexLock lock(conns_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&Router::ServeConnection, this, fd);
  }
}

void Router::ServeConnection(int fd) {
  std::vector<std::uint8_t> request;  // one client frame, prefix included
  std::vector<std::uint8_t> out;
  ConnScratch scratch;
  while (running_.load(std::memory_order_acquire)) {
    std::uint8_t prefix[4];
    if (!ReadFull(fd, prefix, sizeof(prefix))) break;
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    if (body_len < server::kFrameHeaderSize - 4 ||
        body_len > server::kMaxPayload + server::kFrameHeaderSize - 4) {
      break;  // unframeable garbage; no reliable way to resynchronize
    }
    request.resize(sizeof(prefix) + body_len);
    std::memcpy(request.data(), prefix, sizeof(prefix));
    if (!ReadFull(fd, request.data() + sizeof(prefix), body_len)) break;
    out.clear();
    // The router's one check of every client frame: version, type and CRC.
    Result<FrameView> frame =
        server::DecodeFrameBody(request.data() + sizeof(prefix), body_len);
    if (!frame.ok()) {
      // Attributable to no particular request type: echo kResponse, as the
      // backends do for undecodable frames.
      server::EncodeErrorResponse(MsgType::kResponse, frame.status(), &out);
    } else {
      HandleFrame(frame.value(), request, &scratch, &out);
    }
    if (!WriteFull(fd, out.data(), out.size())) break;
  }
  {
    MutexLock lock(conns_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Backend RPC plumbing

Result<Client> Router::AcquireConnection(Backend& backend) {
  {
    MutexLock lock(backend.mu);
    if (!backend.pool.empty()) {
      Client client = std::move(backend.pool.back());
      backend.pool.pop_back();
      return client;
    }
  }
  Result<Client> client =
      backend.is_unix
          ? Client::ConnectUnix(backend.path_or_host, options_.rpc_timeout_ms)
          : Client::ConnectTcp(backend.path_or_host, backend.port,
                               options_.rpc_timeout_ms);
  if (!client.ok()) return client.status();
  MRL_RETURN_IF_ERROR(client.value().SetIoTimeout(options_.rpc_timeout_ms));
  return client;
}

template <typename Fn>
Status Router::WithBackend(int index, Fn&& rpc, bool* transport_failed) {
  if (transport_failed != nullptr) *transport_failed = false;
  Backend& backend = *backends_[static_cast<std::size_t>(index)];
  Result<Client> conn = AcquireConnection(backend);
  if (!conn.ok()) {
    health_.ReportFailure(index);
    if (transport_failed != nullptr) *transport_failed = true;
    return conn.status();
  }
  Client client = std::move(conn).value();
  const Status status = rpc(client);
  if (client.connected()) {
    // The backend answered (even if with its own error): the transport is
    // healthy.
    health_.ReportSuccess(index);
    MutexLock lock(backend.mu);
    if (backend.pool.size() < kMaxPooledConnections) {
      backend.pool.push_back(std::move(client));
    }
  } else {
    health_.ReportFailure(index);
    if (transport_failed != nullptr) *transport_failed = true;
  }
  return status;
}

Status Router::SendFrame(int index, std::span<const std::uint8_t> raw,
                         MsgType type, std::vector<std::uint8_t>* reply,
                         bool* transport_failed) {
  return WithBackend(
      index,
      [&](Client& client) {
        Result<server::ResponseView> r = client.ForwardFrame(raw, type, reply);
        return r.ok() ? r.value().ToStatus() : r.status();
      },
      transport_failed);
}

bool Router::failed_over(std::string_view name) const {
  MutexLock lock(tenants_mu_);
  auto it = tenants_.find(name);
  return it != tenants_.end() && it->second.failed_over;
}

bool Router::IsPartitioned(std::string_view name) const {
  for (const std::string& tenant : options_.partitioned) {
    if (tenant == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Dispatch

void Router::HandleFrame(const FrameView& frame,
                         std::span<const std::uint8_t> raw,
                         ConnScratch* scratch,
                         std::vector<std::uint8_t>* out) {
  if (frame.type == MsgType::kPing) {
    // Answered by the router itself: PING probes the node it reaches.
    const Status status =
        server::DecodePing(frame.payload, frame.payload_len);
    if (!status.ok()) {
      return server::EncodeErrorResponse(frame.type, status, out);
    }
    return server::EncodeEmptyOk(frame.type, out);
  }
  if (frame.type == MsgType::kResponse) {
    return server::EncodeErrorResponse(
        frame.type, Status::InvalidArgument("response frame sent to server"),
        out);
  }
  // Every request payload starts with its tenant name. The peek does not
  // validate it; whoever decodes the request does.
  const std::string_view name =
      server::FrameTenantName(frame.payload, frame.payload_len);
  if (IsPartitioned(name)) return HandlePartitioned(frame, scratch, out);
  if (frame.type == MsgType::kStats && name.empty()) {
    return HandleAggregateStats(frame, out);
  }
  Forward(frame, raw, name, out);
}

void Router::Forward(const FrameView& frame, std::span<const std::uint8_t> raw,
                     std::string_view name, std::vector<std::uint8_t>* out) {
  const MsgType type = frame.type;
  const bool creates =
      type == MsgType::kCreateSketch || type == MsgType::kRestore;
  // CREATE and RESTORE carry the config kept for replica resync.
  TenantConfig config;
  if (creates) {
    const Status status = DecodeConfig(frame, &config);
    if (!status.ok()) return server::EncodeErrorResponse(type, status, out);
  }

  const int owner = ring_.OwnerOf(name);
  const int replica = options_.replicate ? ring_.ReplicaOf(name) : -1;
  // Only a tenant created through this router has a warm replica to fail
  // over to; a CREATE always lands on the owner.
  bool known = false;
  bool on_replica = false;
  if (replica >= 0 && type != MsgType::kCreateSketch) {
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(name);
    known = it != tenants_.end();
    on_replica = known && it->second.failed_over;
  }
  bool transport_failed = false;
  Status status = SendFrame(on_replica ? replica : owner, raw, type, out,
                            &transport_failed);
  if (transport_failed && known && !on_replica) {
    // The primary is unreachable: fail over (sticky) and retry once on the
    // replica. It holds an identical sketch, so no data the client was
    // acknowledged for is lost.
    {
      MutexLock lock(tenants_mu_);
      auto it = tenants_.find(name);
      if (it != tenants_.end()) it->second.failed_over = true;
    }
    on_replica = true;
    status = SendFrame(replica, raw, type, out);
  }

  if (type == MsgType::kDelete) {
    // Best effort on the other copy; NotFound / dead replica are fine.
    if (replica >= 0) {
      (void)SendFrame(on_replica ? owner : replica, raw, type, nullptr);
    }
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) tenants_.erase(it);
  } else if (status.ok()) {
    // Mirror writes to the replica. A miss only marks it dirty (the health
    // thread resyncs it, SNAPSHOT -> RESTORE); it never fails the client's
    // request. CREATE mirrors the same config, and critically the same
    // seed, so both copies make identical sampling decisions.
    const bool mirror =
        replica >= 0 && !on_replica &&
        (creates || (type == MsgType::kAddBatch && known));
    const bool replica_dirty =
        mirror && !SendFrame(replica, raw, type, nullptr).ok();
    if (creates || replica_dirty) {
      MutexLock lock(tenants_mu_);
      auto it = creates ? tenants_.try_emplace(std::string(name)).first
                        : tenants_.find(name);
      if (it != tenants_.end()) {
        TenantState& state = it->second;
        if (creates) {
          state.config = config;
          state.partitioned = false;
        }
        if (type == MsgType::kCreateSketch) {
          state.failed_over = false;
          state.replica_dirty = false;
        }
        if (replica_dirty) {
          state.replica_dirty = true;
          ++state.dirty_gen;
        }
      }
    }
  }
  // No reply came from any backend: answer the transport error.
  if (out->empty()) server::EncodeErrorResponse(type, status, out);
}

void Router::HandlePartitioned(const FrameView& frame, ConnScratch* scratch,
                               std::vector<std::uint8_t>* out) {
  const MsgType type = frame.type;
  switch (type) {
    case MsgType::kAddBatch:
      return SplitAddBatch(frame, scratch, out);
    case MsgType::kStats:
      return HandleAggregateStats(frame, out);
    case MsgType::kCreateSketch: {
      Result<server::CreateSketchRequest> req =
          server::DecodeCreateSketch(frame.payload, frame.payload_len);
      if (!req.ok()) {
        return server::EncodeErrorResponse(type, req.status(), out);
      }
      const std::string_view name = req.value().name;
      // Broadcast with derived per-backend seeds: every backend holds one
      // range partition of the tenant.
      for (std::size_t i = 0; i < backends_.size(); ++i) {
        TenantConfig part_config = req.value().config;
        part_config.seed += static_cast<std::uint64_t>(i) *
                            kPartitionSeedStride;
        const Status status =
            WithBackend(static_cast<int>(i), [&](Client& client) {
              return client.CreateSketch(name, part_config);
            });
        if (!status.ok()) {
          return server::EncodeErrorResponse(type, status, out);
        }
      }
      MutexLock lock(tenants_mu_);
      TenantState& state = tenants_[std::string(name)];
      state.config = req.value().config;
      state.partitioned = true;
      return server::EncodeEmptyOk(type, out);
    }
    case MsgType::kQuery: {
      Result<server::QueryRequest> req =
          server::DecodeQuery(frame.payload, frame.payload_len);
      if (!req.ok()) {
        return server::EncodeErrorResponse(type, req.status(), out);
      }
      std::vector<double> answers;
      const double phis[1] = {req.value().phi};
      const Status status = FanOutQuery(req.value().name, phis, &answers);
      if (!status.ok()) return server::EncodeErrorResponse(type, status, out);
      return server::EncodeQueryOk(answers[0], out);
    }
    case MsgType::kQueryMulti: {
      Result<server::QueryMultiRequest> req =
          server::DecodeQueryMulti(frame.payload, frame.payload_len);
      std::vector<double> phis;
      std::vector<double> answers;
      Status status = req.status();
      if (status.ok()) {
        status = server::DecodeDoublesInto(
            req.value().phis_le, req.value().count, /*reject_nan=*/true, &phis);
      }
      if (status.ok()) status = FanOutQuery(req.value().name, phis, &answers);
      if (!status.ok()) return server::EncodeErrorResponse(type, status, out);
      return server::EncodeQueryMultiOk(answers, out);
    }
    case MsgType::kRestore: {
      Result<server::RestoreRequest> req =
          server::DecodeRestore(frame.payload, frame.payload_len);
      return server::EncodeErrorResponse(
          type,
          req.ok() ? Status::FailedPrecondition(
                         "partitioned tenants cannot be restored through "
                         "the router")
                   : req.status(),
          out);
    }
    default:
      break;
  }

  // SNAPSHOT, DELETE and FETCH_SUMMARY carry only the name.
  Result<server::NameRequest> req =
      server::DecodeNameRequest(type, frame.payload, frame.payload_len);
  if (!req.ok()) return server::EncodeErrorResponse(type, req.status(), out);
  const std::string_view name = req.value().name;

  if (type == MsgType::kSnapshot) {
    return server::EncodeErrorResponse(
        type,
        Status::FailedPrecondition(
            "partitioned tenants have no single checkpoint; use "
            "FETCH_SUMMARY or snapshot the backends directly"),
        out);
  }

  if (type == MsgType::kDelete) {
    Status first_error = Status::OK();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (!health_.IsUsable(static_cast<int>(i))) continue;
      const Status status =
          WithBackend(static_cast<int>(i), [&](Client& client) {
            return client.Delete(name);
          });
      if (!status.ok() && status.code() != StatusCode::kNotFound &&
          first_error.ok()) {
        first_error = status;
      }
    }
    {
      MutexLock lock(tenants_mu_);
      auto it = tenants_.find(name);
      if (it != tenants_.end()) tenants_.erase(it);
    }
    if (!first_error.ok()) {
      return server::EncodeErrorResponse(type, first_error, out);
    }
    return server::EncodeEmptyOk(type, out);
  }

  // FETCH_SUMMARY: fan out and splice. Partials share one k, so the union
  // of their buffer sets is itself a valid partial summary; this is what
  // lets routers stack hierarchically.
  std::vector<PartialSummary> parts;
  const Status status = FetchPartials(name, &parts);
  if (!status.ok()) return server::EncodeErrorResponse(type, status, out);
  PartialSummary combined = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].params.k != combined.params.k) {
      return server::EncodeErrorResponse(
          type, Status::Internal("partitions disagree on buffer capacity k"),
          out);
    }
    if (parts[i].params.b > combined.params.b) {
      combined.params = parts[i].params;
    }
    combined.count += parts[i].count;
    for (ShippedBuffer& buf : parts[i].buffers) {
      combined.buffers.push_back(std::move(buf));
    }
  }
  std::vector<std::uint8_t> blob;
  SerializePartialSummary(combined, &blob);
  server::EncodeFetchSummaryOk(blob, out);
}

void Router::SplitAddBatch(const FrameView& frame, ConnScratch* scratch,
                           std::vector<std::uint8_t>* out) {
  Result<server::AddBatchRequest> req =
      server::DecodeAddBatch(frame.payload, frame.payload_len);
  if (!req.ok()) {
    return server::EncodeErrorResponse(frame.type, req.status(), out);
  }
  const server::AddBatchRequest& batch = req.value();
  // The whole batch is refused before any partition sees a slice of it.
  if (Status status = server::RejectNanLe(batch.values_le, batch.count);
      !status.ok()) {
    return server::EncodeErrorResponse(frame.type, status, out);
  }
  std::vector<int>& usable = scratch->usable;
  usable.clear();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (health_.IsUsable(static_cast<int>(i))) {
      usable.push_back(static_cast<int>(i));
    }
  }
  if (usable.empty()) {
    return server::EncodeErrorResponse(
        frame.type, Status::Internal("no usable backends"), out);
  }
  // Contiguous slices, one per usable backend; the reply is the tenant's
  // total count across all partitions. Trailing slots may get an empty
  // slice but are still asked, so the total covers every partition.
  const std::uint64_t per = (batch.count + usable.size() - 1) / usable.size();
  std::uint64_t total = 0;
  for (std::size_t slot = 0; slot < usable.size(); ++slot) {
    const std::uint64_t begin = std::min(slot * per, batch.count);
    const std::uint64_t end = std::min(batch.count, begin + per);
    scratch->frame.clear();
    server::EncodeAddBatchLe(batch.name,
                             batch.values_le + begin * sizeof(double),
                             end - begin, &scratch->frame);
    const Status status = WithBackend(usable[slot], [&](Client& client) {
      Result<server::ResponseView> r =
          client.ForwardFrame(scratch->frame, MsgType::kAddBatch, nullptr);
      if (!r.ok()) return r.status();
      Result<std::uint64_t> count = server::DecodeAddBatchOk(r.value());
      if (!count.ok()) return count.status();
      total += count.value();
      return Status::OK();
    });
    if (!status.ok()) {
      return server::EncodeErrorResponse(frame.type, status, out);
    }
  }
  server::EncodeAddBatchOk(total, out);
}

Status Router::FetchPartials(std::string_view name,
                             std::vector<PartialSummary>* parts) {
  Status last_error = Status::NotFound("tenant '" + std::string(name) +
                                       "' not found on any backend");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    std::vector<std::uint8_t> blob;
    const Status status = WithBackend(static_cast<int>(i), [&](Client& client) {
      return client.FetchSummary(name, &blob);
    });
    if (!status.ok()) {
      last_error = status;
      continue;
    }
    Result<PartialSummary> part = DeserializePartialSummary(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    if (!part.ok()) return part.status();
    parts->push_back(std::move(part).value());
  }
  return parts->empty() ? last_error : Status::OK();
}

Status Router::FanOutQuery(std::string_view name, std::span<const double> phis,
                           std::vector<double>* answers) {
  std::vector<PartialSummary> parts;
  MRL_RETURN_IF_ERROR(FetchPartials(name, &parts));
  std::uint64_t seed = 1;
  {
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(name);
    if (it != tenants_.end()) seed = it->second.config.seed;
  }
  Result<std::vector<Value>> merged = MergePartialQuantiles(
      parts, seed, std::vector<double>(phis.begin(), phis.end()));
  if (!merged.ok()) return merged.status();
  *answers = std::move(merged).value();
  return Status::OK();
}

void Router::HandleAggregateStats(const FrameView& frame,
                                  std::vector<std::uint8_t>* out) {
  Result<server::NameRequest> req =
      server::DecodeNameRequest(frame.type, frame.payload, frame.payload_len);
  if (!req.ok()) {
    return server::EncodeErrorResponse(frame.type, req.status(), out);
  }
  const std::string_view name = req.value().name;
  // With replication the totals count each mirrored copy once per holder:
  // fleet-level occupancy, not distinct data.
  server::StatsReply total;
  bool any = false;
  Status last_error = Status::Internal("no usable backends");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    server::StatsReply reply;
    const Status status = WithBackend(static_cast<int>(i), [&](Client& client) {
      Result<server::StatsReply> r = client.Stats(name);
      if (!r.ok()) return r.status();
      reply = r.value();
      return Status::OK();
    });
    if (!status.ok()) {
      last_error = status;
      continue;
    }
    any = true;
    total.num_tenants += reply.num_tenants;
    total.total_count += reply.total_count;
    if (reply.tenant_present) {
      total.tenant_present = true;
      total.tenant_kind = reply.tenant_kind;
      total.tenant_count += reply.tenant_count;
      total.tenant_memory_elements += reply.tenant_memory_elements;
    }
  }
  if (!any) return server::EncodeErrorResponse(frame.type, last_error, out);
  server::EncodeStatsOk(total, out);
}

// ---------------------------------------------------------------------------
// Health and replica resync

void Router::HealthLoop() {
  const auto interval = std::chrono::milliseconds(
      options_.health_interval_ms > 0 ? options_.health_interval_ms : 200);
  for (;;) {
    {
      MutexLock lock(health_mu_);
      health_cv_.wait_for(lock.native(), interval);
      if (health_stop_) return;
    }
    ProbeBackends();
    ResyncDirtyReplicas();
  }
}

void Router::ProbeBackends() {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    // WithBackend feeds the tracker on both outcomes; probing a down
    // backend is also how its recovery is noticed.
    (void)WithBackend(static_cast<int>(i),
                      [](Client& client) { return client.Ping(); });
  }
}

void Router::ResyncDirtyReplicas() {
  if (!options_.replicate) return;
  struct DirtyTenant {
    std::string name;
    TenantConfig config;
    std::uint64_t gen;
  };
  std::vector<DirtyTenant> dirty;
  {
    MutexLock lock(tenants_mu_);
    for (const auto& [name, state] : tenants_) {
      if (state.replica_dirty && !state.failed_over && !state.partitioned) {
        dirty.push_back({name, state.config, state.dirty_gen});
      }
    }
  }
  for (const DirtyTenant& tenant : dirty) {
    const int owner = ring_.OwnerOf(tenant.name);
    const int replica = ring_.ReplicaOf(tenant.name);
    if (replica < 0 || !health_.IsUsable(owner) ||
        !health_.IsUsable(replica)) {
      continue;
    }
    std::vector<std::uint8_t> blob;
    Status status = WithBackend(owner, [&](Client& client) {
      return client.Snapshot(tenant.name, &blob);
    });
    if (!status.ok()) continue;
    status = WithBackend(replica, [&](Client& client) {
      return client.RestoreTenant(tenant.name, tenant.config,
                                  std::span<const std::uint8_t>(blob));
    });
    if (!status.ok()) continue;
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(tenant.name);
    // Clear only the generation we shipped: a mirror that failed while the
    // checkpoint was in flight bumped the generation, and that marking must
    // win (the snapshot predates the write it records as missing).
    if (it != tenants_.end() && !it->second.failed_over &&
        it->second.dirty_gen == tenant.gen) {
      it->second.replica_dirty = false;
    }
  }
}

}  // namespace router
}  // namespace mrl
