// Wire protocol round-trip and strictness tests (src/server/protocol.h),
// plus the differential checks of the fast codec paths: the dispatched
// CRC-32 against the byte-at-a-time table loop, the bulk-copy encoders
// against per-value encoding, and the one-pass NaN scan at every position.

#include "server/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"
#include "util/simd.h"

namespace mrl {
namespace server {
namespace {

// Decodes a whole encoded request buffer into a FrameView, asserting well-
// formedness on the way.
FrameView MustDecode(const std::vector<std::uint8_t>& wire) {
  Result<FrameView> frame = DecodeFrame(wire.data(), wire.size());
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().frame_size, wire.size());
  return frame.value();
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The classic IEEE CRC-32 check value for "123456789".
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

/// The byte-at-a-time table loop every CRC kernel must reproduce.
std::uint32_t Crc32Reference(const std::uint8_t* data, std::size_t n) {
  return ~simd::ScalarSortKernels().crc32_update(0xFFFFFFFFu, data, n);
}

/// Every CRC-32 entry point under test: the dispatched Crc32 and, when this
/// host and build have it, the AVX2 table's PCLMULQDQ kernel called
/// directly (so the fold is covered even when MRLQUANT_FORCE_SCALAR pins
/// the dispatch to the table loop).
void ExpectCrcMatchesReference(const std::uint8_t* data, std::size_t n) {
  const std::uint32_t want = Crc32Reference(data, n);
  ASSERT_EQ(Crc32(data, n), want) << "length " << n;
  if (const simd::SortKernelOps* avx2 = simd::Avx2SortKernelsOrNull()) {
    ASSERT_EQ(~avx2->crc32_update(0xFFFFFFFFu, data, n), want)
        << "length " << n;
  }
}

TEST(Crc32Test, DispatchedMatchesBytewiseAcrossLengthsAndOffsets) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kMaxOffset = 15;
  Random rng(7);
  std::vector<std::uint8_t> random(kMaxLen + kMaxOffset);
  for (std::uint8_t& b : random) {
    b = static_cast<std::uint8_t>(rng.NextUint32());
  }
  const std::vector<std::uint8_t> zeros(kMaxLen + kMaxOffset, 0x00);
  const std::vector<std::uint8_t> ones(kMaxLen + kMaxOffset, 0xFF);
  for (const std::vector<std::uint8_t>* buf :
       std::initializer_list<const std::vector<std::uint8_t>*>{
           &random, &zeros, &ones}) {
    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        ExpectCrcMatchesReference(buf->data() + offset, n);
      }
    }
  }
}

TEST(Crc32Test, DispatchedMatchesBytewiseOnOneMiB) {
  Random rng(11);
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.NextUint32());
  }
  ExpectCrcMatchesReference(buf.data(), buf.size());
  ExpectCrcMatchesReference(buf.data() + 3, buf.size() - 7);
}

std::uint64_t BitsOf(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr std::uint64_t kQuietNan = 0x7FF8000000000000ull;
constexpr std::uint64_t kSignalingNan = 0x7FF0000000000001ull;
constexpr std::uint64_t kNegativeNan = 0xFFF8000000000123ull;

/// Doubles whose bit patterns a byte-order or bulk-copy slip would garble:
/// both zeros, both infinities, denormals, extremes, and NaN payloads.
std::vector<Value> CodecPalette() {
  return {
      +0.0,
      -0.0,
      std::numeric_limits<Value>::infinity(),
      -std::numeric_limits<Value>::infinity(),
      std::numeric_limits<Value>::denorm_min(),
      -std::numeric_limits<Value>::denorm_min(),
      FromBits(0x000FFFFFFFFFFFFFull),  // largest denormal
      std::numeric_limits<Value>::min(),
      std::numeric_limits<Value>::max(),
      std::numeric_limits<Value>::lowest(),
      1.5,
      -2.25,
      FromBits(kQuietNan),
      FromBits(kSignalingNan),
      FromBits(kNegativeNan),
      FromBits(0x7FFFFFFFFFFFFFFFull),
  };
}

TEST(CodecTest, BulkEncodersMatchPerValueEncoding) {
  const std::vector<Value> palette = CodecPalette();
  for (std::size_t n = 0; n <= palette.size(); ++n) {
    const std::span<const Value> values(palette.data(), n);

    std::vector<std::uint8_t> want;
    FrameBuilder add(MsgType::kAddBatch, &want);
    add.PutName("t");
    add.PutU64(n);
    for (Value v : values) add.PutDouble(v);
    add.Finish();
    std::vector<std::uint8_t> got;
    EncodeAddBatch("t", values, &got);
    EXPECT_EQ(got, want) << "ADD_BATCH of " << n;

    want.clear();
    FrameBuilder multi(MsgType::kQueryMulti, &want);
    multi.PutName("t");
    multi.PutU64(n);
    for (Value v : values) multi.PutDouble(v);
    multi.Finish();
    got.clear();
    EncodeQueryMulti("t", values, &got);
    EXPECT_EQ(got, want) << "QUERY_MULTI of " << n;

    // The per-value wire bytes, spelled out: little-endian IEEE-754.
    std::vector<std::uint8_t> le;
    for (Value v : values) {
      for (int b = 0; b < 8; ++b) le.push_back((BitsOf(v) >> (8 * b)) & 0xff);
    }
    got.clear();
    EncodeQueryMultiOk(values, &got);
    ASSERT_GE(got.size(), le.size());
    EXPECT_TRUE(std::equal(le.begin(), le.end(), got.end() - le.size()))
        << "QUERY_MULTI reply of " << n;
  }
}

std::vector<std::uint8_t> LeBytes(const std::vector<std::uint64_t>& words) {
  std::vector<std::uint8_t> out;
  for (std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) out.push_back((w >> (8 * b)) & 0xff);
  }
  return out;
}

TEST(CodecTest, NanRejectedAtEveryPosition) {
  // Everything but NaN passes: both zeros, both infinities, denormals.
  const std::vector<std::uint64_t> fill = {
      BitsOf(-0.0),
      BitsOf(std::numeric_limits<double>::infinity()),
      BitsOf(-std::numeric_limits<double>::infinity()),
      BitsOf(0.0),
      BitsOf(std::numeric_limits<double>::denorm_min()),
      BitsOf(-1.0),
      0x7FEFFFFFFFFFFFFFull,  // largest finite
  };
  for (std::size_t len = 1; len <= 67; ++len) {
    std::vector<std::uint64_t> words(len);
    for (std::size_t i = 0; i < len; ++i) words[i] = fill[i % fill.size()];

    std::vector<double> out = {42.0};
    std::vector<std::uint8_t> le = LeBytes(words);
    ASSERT_TRUE(DecodeDoublesInto(le.data(), len, /*reject_nan=*/true, &out)
                    .ok());
    ASSERT_EQ(out.size(), len);
    for (std::size_t i = 0; i < len; ++i) ASSERT_EQ(BitsOf(out[i]), words[i]);
    ASSERT_TRUE(RejectNanLe(le.data(), len).ok());

    for (std::uint64_t nan : {kQuietNan, kSignalingNan, kNegativeNan}) {
      for (std::size_t pos = 0; pos < len; ++pos) {
        std::vector<std::uint64_t> bad = words;
        bad[pos] = nan;
        le = LeBytes(bad);
        out.assign(3, 1.0);
        const Status decoded =
            DecodeDoublesInto(le.data(), len, /*reject_nan=*/true, &out);
        ASSERT_EQ(decoded.code(), StatusCode::kInvalidArgument)
            << "len " << len << " pos " << pos;
        EXPECT_EQ(decoded.message(), "NaN rejected at the protocol boundary");
        EXPECT_TRUE(out.empty());
        const Status scanned = RejectNanLe(le.data(), len);
        ASSERT_EQ(scanned.code(), StatusCode::kInvalidArgument)
            << "len " << len << " pos " << pos;
        EXPECT_EQ(scanned.message(), decoded.message());
        // Without reject_nan the NaN is copied bit for bit.
        ASSERT_TRUE(
            DecodeDoublesInto(le.data(), len, /*reject_nan=*/false, &out)
                .ok());
        ASSERT_EQ(BitsOf(out[pos]), nan);
      }
    }
  }
}

TEST(TenantNameTest, Validation) {
  EXPECT_TRUE(IsValidTenantName("latency"));
  EXPECT_TRUE(IsValidTenantName("a"));
  EXPECT_TRUE(IsValidTenantName("svc-1.region_2"));
  EXPECT_TRUE(IsValidTenantName(std::string(kMaxTenantNameLen, 'x')));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName(".hidden"));
  EXPECT_FALSE(IsValidTenantName("has space"));
  EXPECT_FALSE(IsValidTenantName("sla$h"));
  EXPECT_FALSE(IsValidTenantName(std::string(kMaxTenantNameLen + 1, 'x')));
  EXPECT_FALSE(IsValidTenantName(std::string_view("nul\0byte", 8)));
}

TEST(FrameTest, CreateSketchRoundTrip) {
  TenantConfig config;
  config.kind = SketchKind::kKll;
  config.eps = 0.02;
  config.delta = 1e-3;
  config.seed = 42;
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("tenant-a", config, &wire);

  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kCreateSketch);
  Result<CreateSketchRequest> req =
      DecodeCreateSketch(frame.payload, frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "tenant-a");
  EXPECT_TRUE(req.value().config == config);
}

TEST(SketchKindTest, ValidatorCoversExactlyTheKnownKinds) {
  EXPECT_TRUE(IsKnownSketchKind(0));
  EXPECT_FALSE(IsKnownSketchKind(kRetiredShardedKind));
  EXPECT_TRUE(IsKnownSketchKind(2));
  EXPECT_TRUE(IsKnownSketchKind(3));
  for (int kind = 4; kind <= 255; ++kind) {
    EXPECT_FALSE(IsKnownSketchKind(static_cast<std::uint8_t>(kind)))
        << "kind " << kind;
  }
  for (SketchKind kind : kSketchKinds) {
    EXPECT_TRUE(CheckSketchKind(static_cast<std::uint8_t>(kind)).ok());
  }
  EXPECT_EQ(CheckSketchKind(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SketchKindName(SketchKind::kUnknownN), "unknown_n");
  EXPECT_EQ(SketchKindName(SketchKind::kKll), "kll");
  EXPECT_EQ(SketchKindName(SketchKind::kDetReservoir), "det_reservoir");
  EXPECT_EQ(SketchKindName(static_cast<SketchKind>(200)), "invalid");
  EXPECT_EQ(SketchKindName(static_cast<SketchKind>(kRetiredShardedKind)),
            "invalid");
}

// Builds the CREATE_SKETCH (or RESTORE, with an empty blob) frame that an
// encoder from any protocol-v3 build could have written, with the kind
// byte and the reserved u32 slot chosen by the caller.
std::vector<std::uint8_t> ConfigFrame(MsgType type, std::uint8_t kind,
                                      std::uint32_t reserved) {
  std::vector<std::uint8_t> wire;
  FrameBuilder frame(type, &wire);
  frame.PutName("t");
  frame.PutU8(kind);
  frame.PutDouble(0.01);  // eps
  frame.PutDouble(1e-4);  // delta
  frame.PutU32(reserved);
  frame.PutU64(1);  // seed
  if (type == MsgType::kRestore) frame.PutU32(0);  // blob length
  frame.Finish();
  return wire;
}

Status DecodeConfigFrame(const std::vector<std::uint8_t>& wire) {
  const FrameView frame = MustDecode(wire);
  if (frame.type == MsgType::kCreateSketch) {
    return DecodeCreateSketch(frame.payload, frame.payload_len).status();
  }
  return DecodeRestore(frame.payload, frame.payload_len).status();
}

TEST(SketchKindTest, RetiredShardedKindRejectedWithMigrationMessage) {
  for (MsgType type : {MsgType::kCreateSketch, MsgType::kRestore}) {
    const Status status =
        DecodeConfigFrame(ConfigFrame(type, kRetiredShardedKind, 4));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sharded"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("removed"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("unknown_n"), std::string::npos)
        << status.message();
    EXPECT_EQ(status.message(), CheckSketchKind(kRetiredShardedKind).message());
  }

  StatsReply stats;
  stats.tenant_present = true;
  stats.tenant_kind = static_cast<SketchKind>(kRetiredShardedKind);
  std::vector<std::uint8_t> wire;
  EncodeStatsOk(stats, &wire);
  const FrameView frame = MustDecode(wire);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<StatsReply> decoded = DecodeStatsOk(response.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status().message(),
            CheckSketchKind(kRetiredShardedKind).message());
}

TEST(SketchKindTest, ReservedSlotKeepsItsRangeCheck) {
  // Encoders write 1 into the slot that once held the shard count.
  TenantConfig config;
  std::vector<std::uint8_t> encoded;
  EncodeCreateSketch("t", config, &encoded);
  EXPECT_EQ(encoded, ConfigFrame(MsgType::kCreateSketch, 0, 1));
  encoded.clear();
  EncodeRestore("t", config, {}, &encoded);
  EXPECT_EQ(encoded, ConfigFrame(MsgType::kRestore, 0, 1));

  // Decoders accept any value an older encoder wrote and still reject
  // values outside [1, 1024].
  for (MsgType type : {MsgType::kCreateSketch, MsgType::kRestore}) {
    for (std::uint32_t reserved : {1u, 4u, 1024u}) {
      EXPECT_TRUE(DecodeConfigFrame(ConfigFrame(type, 0, reserved)).ok())
          << reserved;
    }
    for (std::uint32_t reserved : {0u, 1025u, 0xFFFFFFFFu}) {
      const Status status = DecodeConfigFrame(ConfigFrame(type, 0, reserved));
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << reserved;
    }
  }
}

// The committed fuzz seeds must be frames the current decoder accepts, so
// the fuzzer starts inside the request decoders rather than at the version
// check. Regenerate with make_protocol_corpus when the framing changes.
TEST(CorpusTest, CommittedProtocolSeedsDecode) {
  std::size_t seeds = 0;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::directory_iterator(MRLQUANT_PROTOCOL_CORPUS_DIR)) {
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    Result<FrameView> frame = DecodeFrame(bytes.data(), bytes.size());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame.value().type == MsgType::kCreateSketch) {
      EXPECT_TRUE(DecodeCreateSketch(frame.value().payload,
                                     frame.value().payload_len)
                      .ok());
    }
    ++seeds;
  }
  EXPECT_GE(seeds, 10u);
}

TEST(FrameTest, ProtocolV2KindsRoundTrip) {
  for (SketchKind kind : {SketchKind::kKll, SketchKind::kDetReservoir}) {
    TenantConfig config;
    config.kind = kind;
    config.eps = 0.01;
    config.delta = 1e-4;
    config.seed = 7;
    std::vector<std::uint8_t> wire;
    EncodeCreateSketch("t", config, &wire);
    const FrameView frame = MustDecode(wire);
    Result<CreateSketchRequest> req =
        DecodeCreateSketch(frame.payload, frame.payload_len);
    ASSERT_TRUE(req.ok()) << req.status().ToString();
    EXPECT_TRUE(req.value().config == config);
  }
}

TEST(FrameTest, UnknownSketchKindByteIsCleanError) {
  // Hand-build CREATE_SKETCH payloads carrying hostile kind bytes: every
  // one must come back as InvalidArgument from the decoder — never an
  // abort, and never a half-decoded request.
  for (int kind : {4, 5, 17, 128, 255}) {
    std::vector<std::uint8_t> wire;
    {
      FrameBuilder frame(MsgType::kCreateSketch, &wire);
      frame.PutName("t");
      frame.PutU8(static_cast<std::uint8_t>(kind));
      frame.PutDouble(0.01);   // eps
      frame.PutDouble(1e-4);   // delta
      frame.PutU32(4);         // reserved slot
      frame.PutU64(1);         // seed
      frame.Finish();
    }
    const FrameView frame = MustDecode(wire);
    Result<CreateSketchRequest> req =
        DecodeCreateSketch(frame.payload, frame.payload_len);
    ASSERT_FALSE(req.ok()) << "kind " << kind;
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ResponseTest, StatsReplyUnknownKindRejected) {
  StatsReply stats;
  stats.tenant_present = true;
  stats.tenant_kind = static_cast<SketchKind>(9);
  std::vector<std::uint8_t> wire;
  EncodeStatsOk(stats, &wire);
  const FrameView frame = MustDecode(wire);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(DecodeStatsOk(response.value()).ok());
}

TEST(FrameTest, AddBatchRoundTrip) {
  const std::vector<Value> values = {1.5, -2.25, 0.0, 1e300};
  std::vector<std::uint8_t> wire;
  EncodeAddBatch("t", values, &wire);

  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kAddBatch);
  Result<AddBatchRequest> req = DecodeAddBatch(frame.payload,
                                               frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "t");
  ASSERT_EQ(req.value().count, values.size());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoublesInto(req.value().values_le, req.value().count,
                                /*reject_nan=*/true, &decoded)
                  .ok());
  EXPECT_EQ(decoded, values);

  // Re-framing the wire bytes, as the router slices a partitioned batch,
  // gives exactly the frame EncodeAddBatch builds from the doubles.
  std::vector<std::uint8_t> reframed;
  EncodeAddBatchLe("t", req.value().values_le, req.value().count, &reframed);
  EXPECT_EQ(reframed, wire);
  reframed.clear();
  std::vector<std::uint8_t> tail;
  EncodeAddBatchLe("t", req.value().values_le + 2 * sizeof(double), 2,
                   &reframed);
  EncodeAddBatch("t", std::span<const Value>(values).subspan(2), &tail);
  EXPECT_EQ(reframed, tail);
}

TEST(FrameTest, QueryAndQueryMultiRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  FrameView frame = MustDecode(wire);
  Result<QueryRequest> q = DecodeQuery(frame.payload, frame.payload_len);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().name, "t");
  EXPECT_EQ(q.value().phi, 0.5);

  wire.clear();
  const std::vector<double> phis = {0.1, 0.5, 0.99};
  EncodeQueryMulti("t", phis, &wire);
  frame = MustDecode(wire);
  Result<QueryMultiRequest> qm =
      DecodeQueryMulti(frame.payload, frame.payload_len);
  ASSERT_TRUE(qm.ok());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoublesInto(qm.value().phis_le, qm.value().count,
                                /*reject_nan=*/true, &decoded)
                  .ok());
  EXPECT_EQ(decoded, phis);
}

TEST(FrameTest, NameRequestsRoundTrip) {
  for (MsgType type :
       {MsgType::kSnapshot, MsgType::kDelete, MsgType::kStats}) {
    std::vector<std::uint8_t> wire;
    EncodeNameRequest(type, "t", &wire);
    const FrameView frame = MustDecode(wire);
    ASSERT_EQ(frame.type, type);
    Result<NameRequest> req =
        DecodeNameRequest(type, frame.payload, frame.payload_len);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req.value().name, "t");
  }
  // STATS (and only STATS) accepts an empty name: global statistics.
  std::vector<std::uint8_t> wire;
  EncodeNameRequest(MsgType::kStats, "", &wire);
  const FrameView frame = MustDecode(wire);
  EXPECT_TRUE(
      DecodeNameRequest(MsgType::kStats, frame.payload, frame.payload_len)
          .ok());
}

TEST(FrameTest, PingRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodePing(&wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kPing);
  EXPECT_EQ(frame.payload_len, 0u);
  EXPECT_TRUE(DecodePing(frame.payload, frame.payload_len).ok());
  // PING is strictly empty; a stray byte is rejected.
  const std::uint8_t junk[1] = {0};
  EXPECT_FALSE(DecodePing(junk, 1).ok());
}

TEST(FrameTest, FetchSummaryRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeNameRequest(MsgType::kFetchSummary, "t", &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kFetchSummary);
  Result<NameRequest> req =
      DecodeNameRequest(MsgType::kFetchSummary, frame.payload,
                        frame.payload_len);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().name, "t");
  // FETCH_SUMMARY needs a tenant; an empty name is rejected.
  wire.clear();
  EncodeNameRequest(MsgType::kStats, "", &wire);
  const FrameView empty = MustDecode(wire);
  EXPECT_FALSE(DecodeNameRequest(MsgType::kFetchSummary, empty.payload,
                                 empty.payload_len)
                   .ok());
}

TEST(FrameTest, RestoreRoundTrip) {
  TenantConfig config;
  config.kind = SketchKind::kDetReservoir;
  config.eps = 0.02;
  config.delta = 1e-5;
  config.seed = 99;
  const std::uint8_t blob[4] = {1, 2, 3, 4};
  std::vector<std::uint8_t> wire;
  EncodeRestore("t", config, blob, &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kRestore);
  Result<RestoreRequest> req = DecodeRestore(frame.payload, frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "t");
  EXPECT_TRUE(req.value().config == config);
  ASSERT_EQ(req.value().blob_len, sizeof(blob));
  EXPECT_EQ(std::memcmp(req.value().blob, blob, sizeof(blob)), 0);

  // A blob length that disagrees with the remaining bytes is rejected.
  std::vector<std::uint8_t> truncated(frame.payload,
                                      frame.payload + frame.payload_len - 1);
  EXPECT_FALSE(DecodeRestore(truncated.data(), truncated.size()).ok());
}

TEST(FrameTest, IncompleteBufferIsOutOfRange) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Result<FrameView> frame = DecodeFrame(wire.data(), n);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kOutOfRange)
        << "prefix length " << n;
  }
}

TEST(FrameTest, CorruptionIsRejected) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);

  // Any single flipped payload bit must fail the CRC.
  for (std::size_t i = kFrameHeaderSize; i < wire.size(); ++i) {
    std::vector<std::uint8_t> bad = wire;
    bad[i] ^= 0x01;
    Result<FrameView> frame = DecodeFrame(bad.data(), bad.size());
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }

  std::vector<std::uint8_t> bad = wire;
  bad[4] = 99;  // version
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[5] = 0;  // type below range
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());
  bad[5] = 12;  // type above range (11 = kRestore is the v3 ceiling)
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[6] = 1;  // reserved bits
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[0] = 0xFF;  // absurd length prefix
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  Result<FrameView> frame = DecodeFrame(bad.data(), bad.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, SemanticValidation) {
  std::vector<std::uint8_t> wire;

  // phi outside (0, 1].
  for (double phi : {0.0, -0.5, 1.5,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    wire.clear();
    EncodeQuery("t", phi, &wire);
    const FrameView frame = MustDecode(wire);
    EXPECT_FALSE(DecodeQuery(frame.payload, frame.payload_len).ok())
        << "phi=" << phi;
  }

  // NaN values rejected at the boundary (keeps the sketches' NaN
  // CHECK-abort unreachable from the network).
  wire.clear();
  const std::vector<Value> values = {
      1.0, std::numeric_limits<double>::quiet_NaN()};
  EncodeAddBatch("t", values, &wire);
  const FrameView frame = MustDecode(wire);
  Result<AddBatchRequest> req = DecodeAddBatch(frame.payload,
                                               frame.payload_len);
  ASSERT_TRUE(req.ok());
  std::vector<double> decoded;
  EXPECT_FALSE(DecodeDoublesInto(req.value().values_le, req.value().count,
                                 /*reject_nan=*/true, &decoded)
                   .ok());

  // The router's scan of wire bytes agrees with the decoder on every NaN
  // bit pattern (quiet, signaling, negative) and passes infinities.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::signaling_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                         -0.0, std::numeric_limits<double>::denorm_min()}) {
    wire.clear();
    const std::vector<Value> batch = {0.5, 2.0, v};
    EncodeAddBatch("t", batch, &wire);
    const FrameView view = MustDecode(wire);
    Result<AddBatchRequest> scanned = DecodeAddBatch(view.payload,
                                                     view.payload_len);
    ASSERT_TRUE(scanned.ok());
    const Status by_scan =
        RejectNanLe(scanned.value().values_le, scanned.value().count);
    const Status by_decode =
        DecodeDoublesInto(scanned.value().values_le, scanned.value().count,
                          /*reject_nan=*/true, &decoded);
    EXPECT_EQ(by_scan.ok(), !std::isnan(v)) << v;
    EXPECT_EQ(by_scan.ToString(), by_decode.ToString()) << v;
  }

  // Bad tenant config.
  TenantConfig config;
  config.eps = 0.75;
  wire.clear();
  EncodeCreateSketch("t", config, &wire);
  const FrameView bad_eps = MustDecode(wire);
  EXPECT_FALSE(DecodeCreateSketch(bad_eps.payload, bad_eps.payload_len).ok());
}

TEST(FrameTest, TrailingBytesRejected) {
  // Append a byte to the QUERY payload and refresh length + CRC: framing is
  // fine, but the request decoder must reject the excess.
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  wire.push_back(0x00);
  const std::uint32_t body_len =
      static_cast<std::uint32_t>(wire.size() - 4);
  for (int i = 0; i < 4; ++i) {
    wire[static_cast<std::size_t>(i)] = (body_len >> (8 * i)) & 0xff;
  }
  const std::uint32_t crc =
      Crc32(wire.data() + kFrameHeaderSize, wire.size() - kFrameHeaderSize);
  for (int i = 0; i < 4; ++i) {
    wire[8 + static_cast<std::size_t>(i)] = (crc >> (8 * i)) & 0xff;
  }
  const FrameView frame = MustDecode(wire);
  EXPECT_FALSE(DecodeQuery(frame.payload, frame.payload_len).ok());
}

TEST(ResponseTest, ErrorRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeErrorResponse(MsgType::kQuery, Status::NotFound("unknown tenant"),
                      &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kResponse);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().request_type, MsgType::kQuery);
  EXPECT_FALSE(response.value().ok());
  const Status status = response.value().ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "unknown tenant");
}

TEST(ResponseTest, TypedBodiesRoundTrip) {
  std::vector<std::uint8_t> wire;

  EncodeAddBatchOk(12345, &wire);
  FrameView frame = MustDecode(wire);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<std::uint64_t> count = DecodeAddBatchOk(response.value());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 12345u);

  wire.clear();
  EncodeQueryOk(3.25, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<double> answer = DecodeQueryOk(response.value());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 3.25);

  wire.clear();
  const std::vector<Value> values = {1.0, 2.0, 3.0};
  EncodeQueryMultiOk(values, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  std::vector<Value> out;
  ASSERT_TRUE(DecodeQueryMultiOk(response.value(), &out).ok());
  EXPECT_EQ(out, values);

  wire.clear();
  const std::vector<std::uint8_t> blob = {0xDE, 0xAD, 0xBE, 0xEF};
  EncodeSnapshotOk(blob, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  std::vector<std::uint8_t> blob_out;
  ASSERT_TRUE(DecodeSnapshotOk(response.value(), &blob_out).ok());
  EXPECT_EQ(blob_out, blob);

  wire.clear();
  StatsReply stats;
  stats.num_tenants = 2;
  stats.total_count = 1000;
  stats.tenant_present = true;
  stats.tenant_kind = SketchKind::kKll;
  stats.tenant_count = 600;
  stats.tenant_memory_elements = 4096;
  EncodeStatsOk(stats, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<StatsReply> stats_out = DecodeStatsOk(response.value());
  ASSERT_TRUE(stats_out.ok());
  EXPECT_EQ(stats_out.value().num_tenants, 2u);
  EXPECT_EQ(stats_out.value().total_count, 1000u);
  EXPECT_TRUE(stats_out.value().tenant_present);
  EXPECT_EQ(stats_out.value().tenant_kind, SketchKind::kKll);
  EXPECT_EQ(stats_out.value().tenant_count, 600u);
  EXPECT_EQ(stats_out.value().tenant_memory_elements, 4096u);
}

TEST(ResponseTest, MixedOkAndErrorShapesRejected) {
  // Hand-build a response claiming OK but carrying an error message.
  std::vector<std::uint8_t> wire;
  {
    FrameBuilder frame(MsgType::kResponse, &wire);
    frame.PutU8(static_cast<std::uint8_t>(MsgType::kQuery));
    frame.PutU8(static_cast<std::uint8_t>(StatusCode::kOk));
    frame.PutU16(3);
    const char* msg = "boo";
    frame.PutBytes(reinterpret_cast<const std::uint8_t*>(msg), 3);
    frame.Finish();
  }
  FrameView frame = MustDecode(wire);
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len).ok());

  // And an error that smuggles a body.
  wire.clear();
  {
    FrameBuilder builder(MsgType::kResponse, &wire);
    builder.PutU8(static_cast<std::uint8_t>(MsgType::kQuery));
    builder.PutU8(static_cast<std::uint8_t>(StatusCode::kNotFound));
    builder.PutU16(0);
    builder.PutU64(7);  // body where none is allowed
    builder.Finish();
  }
  frame = MustDecode(wire);
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len).ok());
}

TEST(FrameTest, StreamDecodingConsumesExactFrames) {
  // Two back-to-back frames in one buffer: DecodeFrame must report the
  // first frame's exact size so a stream loop can advance.
  std::vector<std::uint8_t> wire;
  EncodeQuery("a", 0.25, &wire);
  const std::size_t first = wire.size();
  EncodeNameRequest(MsgType::kDelete, "b", &wire);

  Result<FrameView> frame = DecodeFrame(wire.data(), wire.size());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().type, MsgType::kQuery);
  EXPECT_EQ(frame.value().frame_size, first);

  Result<FrameView> second = DecodeFrame(wire.data() + first,
                                         wire.size() - first);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().type, MsgType::kDelete);
}

}  // namespace
}  // namespace server
}  // namespace mrl
