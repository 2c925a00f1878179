#ifndef MRLQUANT_SERVER_CONN_H_
#define MRLQUANT_SERVER_CONN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"

namespace mrl {
namespace server {

/// A nonblocking connection with buffered framing, owned by exactly one
/// shard at a time (handed between shards whole, through an MPSC inbox, so
/// no member needs a lock). The read side accumulates raw bytes until
/// complete frames can be carved off; the write side batches every pending
/// response into one flat buffer flushed with a single vectored write per
/// readiness event — that is what makes request pipelining pay: many
/// frames in per readv, many responses out per writev.
///
/// Both buffers are flat vectors with a consumed-prefix offset; they grow
/// to the connection's high-water mark once and are then reused, so the
/// steady-state ingest path performs no heap allocation
/// (bench/server_throughput.cc pins this with a counting operator new).
class Conn {
 public:
  /// Takes ownership of `fd` (closed on destruction). `write_buffer_cap`
  /// bounds the unflushed response backlog; a connection that pipelines
  /// requests faster than it drains responses is answered with a
  /// ResourceExhausted ERROR and closed instead of buffering without
  /// bound.
  Conn(int fd, std::size_t write_buffer_cap);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  enum class IoResult {
    kOk,     ///< made progress; socket drained to EAGAIN
    kMore,   ///< read budget spent with more input waiting
    kEof,    ///< peer closed its write side (buffered input may remain)
    kError,  ///< transport error; drop the connection
  };

  /// Per-turn read budget. One FillFromSocket call reads at most
  /// max(kReadBudget, the rest of the frame being read) bytes, plus one
  /// byte that tells whether more input is waiting, so a writer
  /// that pipelines a whole burst cannot keep its shard from serving the
  /// other connections until every frame of the burst is answered. The
  /// level-triggered epoll brings the connection back for the rest. A
  /// frame already under way is always read to its end, so one large frame
  /// still costs one turn. 8 KiB is one 1Ki-value ADD_BATCH frame: on a
  /// CPU shared by two busy shards, a 16 KiB budget (two such frames per
  /// turn) left the reads beside them about 50% slower.
  static constexpr std::size_t kReadBudget = 8 * 1024;

  /// Reads the socket into the input buffer until it would block (kOk) or
  /// the read budget is spent with more input waiting (kMore) (readv:
  /// buffer tail first, spill chunk second, so a read larger than the
  /// warmed capacity still lands in one syscall). Call on EPOLLIN
  /// readiness.
  MRLQUANT_HOT IoResult FillFromSocket();

  /// Unconsumed input bytes (front at `data()`).
  const std::uint8_t* data() const { return in_.data() + in_head_; }
  std::size_t available() const { return in_.size() - in_head_; }

  /// Consumes `n` bytes of input (one decoded frame). Compacts the buffer
  /// when it empties, so the consumed prefix never grows without bound.
  MRLQUANT_HOT void Consume(std::size_t n);

  /// Response staging area: handlers append whole encoded frames at the
  /// tail. Flush() drains from the front.
  std::vector<std::uint8_t>* out() { return &out_; }
  std::size_t pending_out() const { return out_.size() - out_head_; }
  std::size_t write_buffer_cap() const { return write_buffer_cap_; }

  /// Rolls the response buffer back to `bytes` pending — discards a
  /// response that would overflow the cap (the write-cap ERROR path).
  void RollbackOut(std::size_t bytes) { out_.resize(out_head_ + bytes); }

  /// Writes as much pending response data as the socket accepts (one
  /// writev). kOk with pending_out() == 0 means fully drained; kOk with
  /// bytes remaining means the socket filled up — arm EPOLLOUT and retry
  /// on writability. Call sites never see a partially written frame
  /// boundary: the kernel preserves byte order, only our buffer offset
  /// moves.
  MRLQUANT_HOT IoResult Flush();

  /// Close after the response buffer drains (write-cap overflow, protocol
  /// errors that poison framing, EOF with responses still buffered).
  bool closing = false;
  /// Pinned to its tenant's home shard (or confirmed shard-agnostic);
  /// re-routing is considered only before the first frame is processed.
  bool routed = false;
  /// Registered EPOLLOUT interest (response backlog waiting for the
  /// socket); tracked here so the shard only issues epoll_ctl on change.
  bool want_write = false;
  /// The last FillFromSocket spent its read budget with input left (kMore):
  /// this connection has had its turn, and the shard serves the
  /// connections that have not before its next one.
  bool backlogged = false;

 private:
  /// Buffer offset where the first incomplete frame in the input ends, or 0
  /// when no such frame's length prefix is buffered (or it is unframeable;
  /// the shard drops such a connection).
  std::size_t PartialFrameEnd() const;

  int fd_;
  std::size_t write_buffer_cap_;

  std::vector<std::uint8_t> in_;
  std::size_t in_head_ = 0;
  std::vector<std::uint8_t> out_;
  std::size_t out_head_ = 0;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_CONN_H_
