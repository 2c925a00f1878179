#ifndef MRLQUANT_SERVER_SHARD_H_
#define MRLQUANT_SERVER_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/conn.h"
#include "server/event_loop.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace server {

/// One shared-nothing event-loop shard. A shard owns its epoll set, the
/// connections registered there, and one reusable request scratch; it
/// serves the registry partition with its own index, so once a connection
/// has been routed to its tenant's home shard, steady-state ADD_BATCH
/// crosses no lock that any other thread ever takes (the partition lock is
/// acquired uncontended; see the lock-order comment in registry.h).
///
/// Connections enter through Adopt() — an eventfd-woken MPSC inbox fed by
/// the acceptor (round-robin) and by peer shards (tenant-affinity
/// migration on a connection's first frame). Everything else runs on the
/// shard's own thread; no other member is shared.
class Shard {
 public:
  Shard(std::size_t index, SketchRegistry* registry,
        std::size_t write_buffer_cap);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Peer array for tenant-affinity migration (index i = shard i ==
  /// registry partition i). Call once, after all shards exist, before
  /// Start().
  void SetPeers(std::span<const std::unique_ptr<Shard>> peers) {
    peers_ = peers;
  }

  Status Start();

  /// Two-phase shutdown so the server can stop all shards in parallel:
  /// RequestStop() wakes the loop, Join() reaps the thread and closes
  /// every remaining connection.
  void RequestStop();
  void Join();

  /// Hands a connection (with whatever bytes are already buffered) to this
  /// shard. Thread-safe; the MPSC inbox entry point. A connection adopted
  /// after shutdown began is closed immediately.
  void Adopt(std::unique_ptr<Conn> conn) MRLQUANT_EXCLUDES(inbox_mu_);

  std::size_t index() const { return index_; }

 private:
  void Loop() MRLQUANT_EXCLUDES(inbox_mu_);
  void DrainInbox() MRLQUANT_EXCLUDES(inbox_mu_);

  /// Runs the handler for one connection's readiness event.
  void Dispatch(const epoll_event& event);

  /// EPOLLIN: read up to the read budget, maybe migrate, process frames,
  /// flush.
  void OnReadable(Conn* conn);
  void OnWritable(Conn* conn);

  /// Decodes and executes every complete frame in the input buffer
  /// (request pipelining: one readiness event, many requests). Responses
  /// accumulate in the connection's write buffer.
  MRLQUANT_HOT void ProcessFrames(Conn* conn);

  /// Executes one request against the registry, appending the response
  /// frame to conn's write buffer.
  void HandleFrame(Conn* conn, MsgType type, const std::uint8_t* payload,
                   std::size_t payload_len);

  /// Routes an unrouted connection to its tenant's home shard once the
  /// first frame is fully buffered. Returns true when the connection was
  /// handed away (caller must not touch it again).
  bool MaybeMigrate(Conn* conn);

  /// Flushes pending responses; arms/disarms EPOLLOUT on partial/complete
  /// drain and finishes deferred closes.
  void FlushOrArm(Conn* conn);

  void CloseConn(Conn* conn);

  std::size_t index_;
  SketchRegistry* registry_;
  std::size_t write_buffer_cap_;
  std::span<const std::unique_ptr<Shard>> peers_;

  EventLoop loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  /// MPSC handoff inbox; inbox_mu_ is a leaf lock — nothing else is
  /// acquired while it is held (in particular no registry lock), so it
  /// cannot participate in a lock-order cycle.
  Mutex inbox_mu_;
  std::vector<std::unique_ptr<Conn>> inbox_ MRLQUANT_GUARDED_BY(inbox_mu_);

  /// Shard-thread-only state below: connections keyed by fd, and request
  /// scratch reused across all of them (decoded doubles, QueryMany
  /// answers, Snapshot blob), so steady-state handling allocates nothing.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  /// Some connection spent its read budget in this loop iteration.
  bool backlog_ = false;
  std::vector<double> doubles_;
  std::vector<Value> answers_;
  std::vector<std::uint8_t> blob_;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_SHARD_H_
