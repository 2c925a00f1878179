#include "server/conn.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "server/protocol.h"

namespace mrl {
namespace server {

namespace {

/// Spill chunk for reads that overflow the warmed input buffer: large
/// enough that a fresh connection reaches its steady-state capacity in a
/// handful of events, small enough to live on the stack.
constexpr std::size_t kReadSpill = 64 * 1024;

}  // namespace

Conn::Conn(int fd, std::size_t write_buffer_cap)
    : fd_(fd), write_buffer_cap_(write_buffer_cap) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::IoResult Conn::FillFromSocket() {
  // Compact before reading so the whole warmed capacity is available as
  // one contiguous tail (memmove of the unconsumed remainder — typically a
  // partial frame, so small).
  if (in_head_ > 0) {
    const std::size_t remain = in_.size() - in_head_;
    if (remain > 0) std::memmove(in_.data(), in_.data() + in_head_, remain);
    in_.resize(remain);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
    in_head_ = 0;
  }
  const std::size_t budget_end = in_.size() + kReadBudget;
  std::uint8_t spill[kReadSpill];
  for (;;) {
    const std::size_t size = in_.size();
    // Re-evaluated after every full read: the bytes just read may have
    // revealed the length of the frame they start.
    const std::size_t limit = std::max(budget_end, PartialFrameEnd());
    // Only a full read (below) gets here past the limit, and it read the
    // extra byte, so more input is known to be waiting.
    if (size >= limit) return IoResult::kMore;
    // One byte past the limit tells a drained socket (short read) from a
    // backlog without another syscall; it stays buffered as the start of
    // the next frame.
    const std::size_t want = limit - size + 1;
    const std::size_t tail_room = std::min(in_.capacity() - size, want);
    const std::size_t spill_len = std::min(sizeof(spill), want - tail_room);
    // Expose the buffer's unused capacity as the first iovec so the common
    // case (burst fits the warmed buffer) costs zero copies, with the
    // stack spill as overflow.
    // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): resize within capacity
    in_.resize(size + tail_room);
    iovec iov[2];
    int iovcnt = 0;
    if (tail_room > 0) {
      iov[iovcnt].iov_base = in_.data() + size;
      iov[iovcnt++].iov_len = tail_room;
    }
    if (spill_len > 0) {
      iov[iovcnt].iov_base = spill;
      iov[iovcnt++].iov_len = spill_len;
    }
    const ssize_t r = ::readv(fd_, iov, iovcnt);
    if (r < 0) {
      in_.resize(size);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    if (r == 0) {
      in_.resize(size);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
      return IoResult::kEof;
    }
    const std::size_t got = static_cast<std::size_t>(r);
    if (got <= tail_room) {
      // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): shrink only
      in_.resize(size + got);
    } else {
      // Burst exceeded the warmed buffer: append the spilled bytes, growing
      // the buffer toward its new high-water mark (amortized away in steady
      // state — the next event finds the capacity already there).
      // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): high-water growth
      in_.insert(in_.end(), spill, spill + (got - tail_room));
    }
    // Short read: the socket is drained.
    if (got < tail_room + spill_len) return IoResult::kOk;
    // Both iovecs filled: more may be pending, go around again.
  }
}

std::size_t Conn::PartialFrameEnd() const {
  std::size_t pos = in_head_;
  while (in_.size() - pos >= 4) {
    const std::uint32_t body_len = FrameBodyLen(in_.data() + pos);
    if (UnframeableBodyLen(body_len)) return 0;
    const std::size_t end = pos + 4 + body_len;
    if (end > in_.size()) return end;
    pos = end;
  }
  return 0;
}

void Conn::Consume(std::size_t n) {
  in_head_ += n;
  if (in_head_ == in_.size()) {
    in_.clear();
    in_head_ = 0;
  }
}

Conn::IoResult Conn::Flush() {
  while (out_head_ < out_.size()) {
    iovec iov;
    iov.iov_base = out_.data() + out_head_;
    iov.iov_len = out_.size() - out_head_;
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    // sendmsg rather than writev for MSG_NOSIGNAL: a peer that closed its
    // read side must surface as EPIPE, not kill the daemon.
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    out_head_ += static_cast<std::size_t>(w);
  }
  out_.clear();
  out_head_ = 0;
  return IoResult::kOk;
}

}  // namespace server
}  // namespace mrl
