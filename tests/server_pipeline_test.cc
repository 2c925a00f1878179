// Request-pipelining and stream-framing edge cases for the sharded
// event-loop server (src/server/shard.cc): the wire protocol is
// length-prefixed frames over a byte stream, so the server must decode
// correctly no matter how the bytes are sliced into reads — and it must
// survive clients that write many requests before reading any response.
//
// Raw-socket tests drive the framing layer directly (frames split across
// read boundaries, many frames in one read); Client-API tests cover the
// pipelining contract of docs/wire_protocol.md (responses per connection
// in request order); the slow-reader tests pin the per-connection
// write-buffer cap behavior: a graceful ResourceExhausted ERROR response
// followed by close, never unbounded buffering. The Conn tests at the end
// pin the per-turn read budget on a socketpair, without a server.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/client.h"
#include "server/conn.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/random.h"

namespace mrl {
namespace server {
namespace {

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

/// One decoded response, materialized (no borrowed views) so many can be
/// collected before asserting.
struct Reply {
  MsgType request_type = MsgType::kResponse;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::uint8_t> body;
};

class ServerPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uds_path_ = "/tmp/mrlq_pipe_test." +
                std::to_string(static_cast<long>(::getpid())) + ".sock";
  }

  void TearDown() override {
    server_.reset();
    std::remove(uds_path_.c_str());
  }

  void StartServer(std::size_t write_buffer_cap = 0) {
    ServerOptions options;
    options.uds_path = uds_path_;
    options.num_shards = 2;  // exercise tenant-affinity migration too
    options.write_buffer_cap = write_buffer_cap;
    Result<std::unique_ptr<QuantileServer>> server =
        QuantileServer::Create(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(server).value();
  }

  /// Raw connected socket (caller closes).
  int ConnectRaw() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, uds_path_.c_str(), uds_path_.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    return fd;
  }

  static bool SendAll(int fd, const std::uint8_t* data, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(w);
    }
    return true;
  }

  static bool RecvAll(int fd, std::uint8_t* data, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, data + got, n - got, 0);
      if (r == 0) return false;
      if (r < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  /// Reads and decodes exactly one response frame. False on EOF or a
  /// malformed frame (asserts on the latter).
  static bool ReadReply(int fd, Reply* out) {
    std::uint8_t prefix[4];
    if (!RecvAll(fd, prefix, sizeof(prefix))) return false;
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    std::vector<std::uint8_t> body(body_len);
    if (!RecvAll(fd, body.data(), body.size())) return false;
    Result<FrameView> frame = DecodeFrameBody(body.data(), body.size());
    EXPECT_TRUE(frame.ok()) << frame.status().message();
    if (!frame.ok()) return false;
    EXPECT_EQ(frame.value().type, MsgType::kResponse);
    Result<ResponseView> view =
        DecodeResponse(frame.value().payload, frame.value().payload_len);
    EXPECT_TRUE(view.ok()) << view.status().message();
    if (!view.ok()) return false;
    out->request_type = view.value().request_type;
    out->code = view.value().code;
    out->message = std::string(view.value().message);
    out->body.assign(view.value().body,
                     view.value().body + view.value().body_len);
    return true;
  }

  std::string uds_path_;
  std::unique_ptr<QuantileServer> server_;
};

// A frame dribbled in one-byte writes — the length prefix, header, and
// payload all split across readv boundaries — must decode exactly as if
// it arrived whole.
TEST_F(ServerPipelineTest, PartialFramesAcrossReadBoundaries) {
  StartServer();
  const int fd = ConnectRaw();

  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("dribble", TenantConfig{}, &wire);
  for (const std::uint8_t byte : wire) {
    ASSERT_TRUE(SendAll(fd, &byte, 1));
  }
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kCreateSketch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // An ADD_BATCH split at awkward offsets: mid-length-prefix, mid-header,
  // and mid-payload.
  wire.clear();
  const std::vector<Value> values = UniformStream(100, 3);
  EncodeAddBatch("dribble", values, &wire);
  const std::size_t cuts[] = {2, kFrameHeaderSize - 1, kFrameHeaderSize + 37,
                              wire.size()};
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    ASSERT_TRUE(SendAll(fd, wire.data() + at, cut - at));
    at = cut;
  }
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  ::close(fd);
}

// Many frames written back-to-back arrive in one readv; the shard must
// decode them all from a single readiness event and answer each, in
// order.
TEST_F(ServerPipelineTest, MultipleFramesPerReadAnswerInOrder) {
  StartServer();
  const int fd = ConnectRaw();

  constexpr int kBatches = 16;
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("burst", TenantConfig{}, &wire);
  for (int i = 0; i < kBatches; ++i) {
    EncodeAddBatch("burst", std::vector<Value>{static_cast<Value>(i)}, &wire);
  }
  EncodeQuery("burst", 1.0, &wire);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));

  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kCreateSketch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(ReadReply(fd, &reply));
    EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
    ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
    // The ADD_BATCH body is the running element count: in-order proof.
    ASSERT_EQ(reply.body.size(), 8u);
    std::uint64_t count = 0;
    std::memcpy(&count, reply.body.data(), 8);
    EXPECT_EQ(count, static_cast<std::uint64_t>(i) + 1);
  }
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kQuery);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  ::close(fd);
}

// A burst several read budgets long, followed by a half-close: the shard
// reads it over several turns, answers every frame in order, and only then
// sees the EOF and closes.
TEST_F(ServerPipelineTest, HalfCloseAfterBurstAnswersEveryFrame) {
  StartServer();
  const int fd = ConnectRaw();

  constexpr int kBatches = 40;
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("halfclose", TenantConfig{}, &wire);
  for (int i = 0; i < kBatches; ++i) {
    EncodeAddBatch("halfclose", UniformStream(256, i), &wire);
  }
  ASSERT_GT(wire.size(), 4 * Conn::kReadBudget);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kCreateSketch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(ReadReply(fd, &reply)) << "reply " << i;
    ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
    ASSERT_EQ(reply.body.size(), 8u);
    std::uint64_t count = 0;
    std::memcpy(&count, reply.body.data(), 8);
    EXPECT_EQ(count, 256u * (static_cast<std::uint64_t>(i) + 1));
  }
  EXPECT_FALSE(ReadReply(fd, &reply));  // EOF after the last reply
  ::close(fd);
}

// The Client pipelining API end to end: one flush carries CREATE + many
// ADD_BATCH + QUERY, and the replies come back positionally.
TEST_F(ServerPipelineTest, ClientPipelineRepliesMatchRequests) {
  StartServer();
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok()) << connected.status().message();
  Client client = std::move(connected).value();

  const std::vector<Value> values = UniformStream(4096, 5);
  client.PipelineCreateSketch("pipe", TenantConfig{});
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    client.PipelineAddBatch(
        "pipe", std::span<const Value>(values.data() + i * 512, 512));
  }
  client.PipelineQuery("pipe", 0.5);
  EXPECT_EQ(client.pipeline_depth(), static_cast<std::size_t>(kBatches) + 2);

  // A blocking call with a pipeline queued is a usage error and must not
  // disturb the queued requests.
  EXPECT_EQ(client.CreateSketch("other", TenantConfig{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.pipeline_depth(), static_cast<std::size_t>(kBatches) + 2);

  std::vector<Client::PipelineReply> replies;
  ASSERT_TRUE(client.PipelineFlush(&replies).ok());
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kBatches) + 2);
  EXPECT_EQ(replies.front().request_type, MsgType::kCreateSketch);
  EXPECT_TRUE(replies.front().status.ok()) << replies.front().status.message();
  for (int i = 0; i < kBatches; ++i) {
    const Client::PipelineReply& reply = replies[static_cast<std::size_t>(i) + 1];
    EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
    ASSERT_TRUE(reply.status.ok()) << reply.status.message();
    EXPECT_EQ(reply.count, static_cast<std::uint64_t>(i + 1) * 512);
  }
  const Client::PipelineReply& query = replies.back();
  EXPECT_EQ(query.request_type, MsgType::kQuery);
  ASSERT_TRUE(query.status.ok()) << query.status.message();
  EXPECT_GT(query.value, 0.0);
  EXPECT_LT(query.value, 1.0);

  // The connection (and plain blocking calls) remain usable after a flush.
  EXPECT_EQ(client.pipeline_depth(), 0u);
  Result<std::uint64_t> count =
      client.AddBatch("pipe", std::span<const Value>(values.data(), 1));
  ASSERT_TRUE(count.ok()) << count.status().message();
  EXPECT_EQ(count.value(), static_cast<std::uint64_t>(kBatches) * 512 + 1);
}

// Server-side per-request errors are isolated to their reply; the
// requests after them still execute and the connection survives.
TEST_F(ServerPipelineTest, PipelinedErrorsAreIsolatedPerRequest) {
  StartServer();
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected).value();

  client.PipelineAddBatch("ghost", std::vector<Value>{1.0});  // NotFound
  client.PipelineCreateSketch("real", TenantConfig{});
  client.PipelineAddBatch("real", std::vector<Value>{1.0, 2.0});
  client.PipelineQuery("ghost", 0.5);  // NotFound again

  std::vector<Client::PipelineReply> replies;
  ASSERT_TRUE(client.PipelineFlush(&replies).ok());
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(replies[1].status.ok()) << replies[1].status.message();
  EXPECT_TRUE(replies[2].status.ok()) << replies[2].status.message();
  EXPECT_EQ(replies[2].count, 2u);
  EXPECT_EQ(replies[3].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.connected());
}

// A response backlog larger than the socket buffers: the server's writev
// returns short/EAGAIN, it arms EPOLLOUT, and drains the queue as the
// client reads. Every response must still arrive, in order.
TEST_F(ServerPipelineTest, ResponseBacklogDrainsViaShortWrites) {
  StartServer();  // default (generous) write-buffer cap
  const int fd = ConnectRaw();

  // One tenant with enough data that QUERY_MULTI responses are meaty.
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("backlog", TenantConfig{}, &wire);
  EncodeAddBatch("backlog", UniformStream(100000, 7), &wire);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // 64 QUERY_MULTI frames x 1000 ranks: ~8 KiB per response, ~512 KiB of
  // backlog — past any default socket buffer, so the server must hold the
  // tail in its write buffer and flush incrementally.
  std::vector<double> phis(1000);
  for (std::size_t i = 0; i < phis.size(); ++i) {
    phis[i] = (static_cast<double>(i) + 1) / (phis.size() + 1);
  }
  constexpr int kRequests = 64;
  wire.clear();
  for (int i = 0; i < kRequests; ++i) {
    EncodeQueryMulti("backlog", phis, &wire);
  }
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(ReadReply(fd, &reply)) << "response " << i;
    EXPECT_EQ(reply.request_type, MsgType::kQueryMulti);
    ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
    // u64 count + 1000 doubles.
    EXPECT_EQ(reply.body.size(), 8u + phis.size() * 8u);
  }

  ::close(fd);
}

// A slow reader that pipelines past the per-connection write-buffer cap
// gets a graceful ResourceExhausted ERROR response and a close — the
// server never buffers without bound. Responses completed before the
// overflow still arrive first (the guarantee is in-order up to the
// error).
TEST_F(ServerPipelineTest, SlowReaderHitsWriteBufferCap) {
  StartServer(/*write_buffer_cap=*/64u << 10);
  const int fd = ConnectRaw();

  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("slow", TenantConfig{}, &wire);
  EncodeAddBatch("slow", UniformStream(100000, 9), &wire);
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // SNAPSHOT requests are ~20 bytes but their responses carry the whole
  // tenant blob (tens of KiB here): 512 of them fit comfortably in the
  // socket buffers — the send below cannot block — while the responses
  // would total many MiB. Without reading a single one, the backlog blows
  // through the 64 KiB cap and the server must fail this connection
  // cleanly instead of buffering it all.
  constexpr int kRequests = 512;
  wire.clear();
  for (int i = 0; i < kRequests; ++i) {
    EncodeNameRequest(MsgType::kSnapshot, "slow", &wire);
  }
  ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));

  // Now read: some number of completed responses, then exactly one
  // ResourceExhausted ERROR, then EOF.
  int ok_responses = 0;
  bool saw_cap_error = false;
  while (ReadReply(fd, &reply)) {
    if (reply.code == StatusCode::kOk) {
      ASSERT_FALSE(saw_cap_error) << "response after the cap error";
      ++ok_responses;
      continue;
    }
    EXPECT_EQ(reply.code, StatusCode::kResourceExhausted);
    EXPECT_FALSE(saw_cap_error) << "more than one cap error";
    saw_cap_error = true;
  }
  EXPECT_TRUE(saw_cap_error);
  EXPECT_LT(ok_responses, kRequests);

  ::close(fd);

  // The server itself is unaffected: a fresh connection works.
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok());
  EXPECT_TRUE(connected.value().Query("slow", 0.5).ok());
}

/// A connected AF_UNIX stream pair: [0] wrapped in a nonblocking Conn,
/// [1] written to by the test (blocking; the bursts below fit the socket
/// buffer).
struct ConnPair {
  ConnPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    EXPECT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
    conn = std::make_unique<Conn>(fds[0], /*write_buffer_cap=*/0);
    peer = fds[1];
  }
  ~ConnPair() {
    if (peer >= 0) ::close(peer);
  }
  void Send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w = ::send(peer, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(w);
    }
  }
  std::unique_ptr<Conn> conn;
  int peer = -1;
};

// A pipelined burst is read a budget at a time: one FillFromSocket takes
// kReadBudget bytes, then only the rest of the frame it stopped in, plus
// one byte that shows more input is waiting (kMore). The call that drains
// the socket returns kOk.
TEST(ConnReadBudgetTest, OneFillTakesAtMostTheBudget) {
  ConnPair pair;
  constexpr int kFrames = 24;
  std::vector<std::uint8_t> frame;
  EncodeAddBatch("burst", UniformStream(300, 9), &frame);
  ASSERT_LT(frame.size(), Conn::kReadBudget);
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kFrames; ++i) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(burst.size(), 3 * Conn::kReadBudget);
  pair.Send(burst);

  std::vector<std::uint8_t> received;
  int turns = 0;
  for (;;) {
    const std::size_t before = pair.conn->available();
    const Conn::IoResult io = pair.conn->FillFromSocket();
    const std::size_t read = pair.conn->available() - before;
    if (io == Conn::IoResult::kOk) break;
    ASSERT_EQ(io, Conn::IoResult::kMore) << "turn " << turns;
    EXPECT_GT(read, Conn::kReadBudget) << "turn " << turns;
    EXPECT_LE(read, Conn::kReadBudget + frame.size() + 1) << "turn " << turns;
    // It stopped one byte into the frame after the one it finished.
    ASSERT_EQ(pair.conn->available() % frame.size(), 1u) << "turn " << turns;
    // Consume whole frames, as the shard does; the extra byte stays.
    const std::size_t whole = pair.conn->available() - 1;
    received.insert(received.end(), pair.conn->data(),
                    pair.conn->data() + whole);
    pair.conn->Consume(whole);
    ++turns;
  }
  EXPECT_GT(turns, 3);
  received.insert(received.end(), pair.conn->data(),
                  pair.conn->data() + pair.conn->available());
  pair.conn->Consume(pair.conn->available());
  EXPECT_EQ(received, burst);

  // Drained: another turn reads nothing; a half-close reads as EOF.
  ASSERT_EQ(pair.conn->FillFromSocket(), Conn::IoResult::kOk);
  EXPECT_EQ(pair.conn->available(), 0u);
  ASSERT_EQ(::shutdown(pair.peer, SHUT_WR), 0);
  EXPECT_EQ(pair.conn->FillFromSocket(), Conn::IoResult::kEof);
}

// A frame larger than the budget is read whole in one turn (its length
// prefix, read within the budget, extends the turn to the frame's end), and
// the turn stops one byte into the next frame rather than reading it too.
// A frame that ends the input ends the turn with kOk: nothing is waiting.
TEST(ConnReadBudgetTest, LargeFrameIsReadInOneTurn) {
  ConnPair pair;
  std::vector<std::uint8_t> big;
  EncodeAddBatch("big", UniformStream(8192, 4), &big);
  ASSERT_GT(big.size(), 4 * Conn::kReadBudget);
  std::vector<std::uint8_t> wire = big;
  EncodePing(&wire);
  pair.Send(wire);

  ASSERT_EQ(pair.conn->FillFromSocket(), Conn::IoResult::kMore);
  ASSERT_EQ(pair.conn->available(), big.size() + 1);
  EXPECT_TRUE(std::equal(big.begin(), big.end(), pair.conn->data()));
  pair.conn->Consume(big.size());

  ASSERT_EQ(pair.conn->FillFromSocket(), Conn::IoResult::kOk);
  EXPECT_EQ(pair.conn->available(), wire.size() - big.size());
  pair.conn->Consume(pair.conn->available());

  pair.Send(big);
  ASSERT_EQ(pair.conn->FillFromSocket(), Conn::IoResult::kOk);
  EXPECT_EQ(pair.conn->available(), big.size());
}

}  // namespace
}  // namespace server
}  // namespace mrl
