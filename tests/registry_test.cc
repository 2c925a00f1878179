// SketchRegistry unit tests: tenancy lifecycle, LRU eviction, free-pool
// recycling, and checkpoint/recover (src/server/registry.h).

#include "server/registry.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/unknown_n.h"
#include "gtest/gtest.h"
#include "server/protocol.h"
#include "util/random.h"
#include "util/serde.h"

namespace mrl {
namespace server {
namespace {

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

/// Exact normalized rank of `answer` in `sorted`.
double RankOf(const std::vector<Value>& sorted, Value answer) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), answer);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += name;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

TEST(RegistryTest, LifecycleAndErrors) {
  SketchRegistry registry(RegistryOptions{});
  TenantConfig config;

  EXPECT_EQ(registry.Create("bad name!", config).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Create("t", config).ok());
  EXPECT_EQ(registry.Create("t", config).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 1u);

  const std::vector<Value> values = {3.0, 1.0, 2.0};
  Result<std::uint64_t> count = registry.AddBatch("t", values);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);
  EXPECT_EQ(registry.AddBatch("ghost", values).status().code(),
            StatusCode::kNotFound);

  Result<Value> median = registry.Query("t", 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median.value(), 2.0);
  EXPECT_EQ(registry.Query("ghost", 0.5).status().code(),
            StatusCode::kNotFound);

  std::vector<Value> answers;
  ASSERT_TRUE(registry.QueryMany("t", std::vector<double>{0.5, 1.0},
                                 &answers)
                  .ok());
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[1], 3.0);

  const TenantStats stats = registry.Stats("t");
  EXPECT_TRUE(stats.present);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_FALSE(registry.Stats("ghost").present);

  ASSERT_TRUE(registry.Delete("t").ok());
  EXPECT_EQ(registry.Delete("t").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, LruEvictionAndRecycling) {
  RegistryOptions options;
  options.max_tenants = 3;
  SketchRegistry registry(options);
  TenantConfig config;

  ASSERT_TRUE(registry.Create("a", config).ok());
  ASSERT_TRUE(registry.Create("b", config).ok());
  ASSERT_TRUE(registry.Create("c", config).ok());

  // Touch a and c so b is the LRU entry.
  ASSERT_TRUE(registry.AddBatch("a", std::vector<Value>{1.0}).ok());
  ASSERT_TRUE(registry.AddBatch("c", std::vector<Value>{1.0}).ok());

  ASSERT_TRUE(registry.Create("d", config).ok());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.Stats("b").present);
  EXPECT_TRUE(registry.Stats("a").present);
  EXPECT_TRUE(registry.Stats("c").present);
  EXPECT_TRUE(registry.Stats("d").present);

  const RegistryStats global = registry.GlobalStats();
  EXPECT_EQ(global.evictions, 1u);
  // d's create was served from the pool (b's evicted sketch recycled).
  EXPECT_EQ(global.recycled_creates, 1u);

  // A recycled slot must behave exactly like a fresh sketch.
  ASSERT_TRUE(registry.AddBatch("d", std::vector<Value>{5.0}).ok());
  Result<Value> answer = registry.Query("d", 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 5.0);
  EXPECT_EQ(registry.Stats("d").count, 1u);
}

// The sharded-server layout: one partition per shard, tenants spread by
// NameHash. Every operation must behave identically to the single-map
// registry, and global accounting must aggregate across partitions.
TEST(RegistryTest, PartitionedRegistryFullLifecycle) {
  RegistryOptions options;
  options.num_partitions = 4;
  SketchRegistry registry(options);
  EXPECT_EQ(registry.num_partitions(), 4u);
  TenantConfig config;

  constexpr int kTenants = 32;
  bool partition_hit[4] = {false, false, false, false};
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "tenant" + std::to_string(i);
    const std::size_t p = registry.PartitionOf(name);
    ASSERT_LT(p, 4u);
    EXPECT_EQ(registry.PartitionOf(name), p);  // hash is stable
    partition_hit[p] = true;
    ASSERT_TRUE(registry.Create(name, config).ok()) << name;
    ASSERT_TRUE(registry.AddBatch(name, std::vector<Value>{1.0, 2.0}).ok());
  }
  // 32 FNV-hashed names into 4 buckets leave none empty (deterministic
  // for this name set; a miss here means the hash or modulus regressed).
  for (int p = 0; p < 4; ++p) EXPECT_TRUE(partition_hit[p]) << p;

  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kTenants));
  EXPECT_EQ(registry.GlobalStats().total_count, 2u * kTenants);

  for (int i = 0; i < kTenants; i += 2) {
    ASSERT_TRUE(registry.Delete("tenant" + std::to_string(i)).ok());
  }
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kTenants) / 2);
  EXPECT_FALSE(registry.Stats("tenant0").present);
  EXPECT_TRUE(registry.Stats("tenant1").present);
  Result<Value> answer = registry.Query("tenant1", 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 2.0);
}

// Eviction is global LRU: the victim is the globally-oldest tenant even
// when it lives in a different partition than the incoming create.
TEST(RegistryTest, EvictionPicksGlobalLruAcrossPartitions) {
  RegistryOptions options;
  options.num_partitions = 4;
  options.max_tenants = 3;
  SketchRegistry registry(options);
  TenantConfig config;

  ASSERT_TRUE(registry.Create("a", config).ok());
  ASSERT_TRUE(registry.Create("b", config).ok());
  ASSERT_TRUE(registry.Create("c", config).ok());

  // Touch a and c so b — wherever it hashed — is globally LRU.
  ASSERT_TRUE(registry.AddBatch("a", std::vector<Value>{1.0}).ok());
  ASSERT_TRUE(registry.AddBatch("c", std::vector<Value>{1.0}).ok());

  ASSERT_TRUE(registry.Create("d", config).ok());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.Stats("b").present);
  EXPECT_TRUE(registry.Stats("a").present);
  EXPECT_TRUE(registry.Stats("c").present);
  EXPECT_TRUE(registry.Stats("d").present);
  EXPECT_EQ(registry.GlobalStats().evictions, 1u);
}

// Checkpoints are partition-agnostic on disk: a registry checkpointed
// with one layout recovers into any other, re-hashing tenants into their
// new home partitions.
TEST(RegistryTest, CheckpointIsPartitionLayoutAgnostic) {
  const std::string path = TempPath("registry_ckpt_parts");
  const std::vector<Value> values = UniformStream(20000, 17);

  {
    RegistryOptions options;
    options.checkpoint_path = path;
    options.num_partitions = 4;
    SketchRegistry registry(options);
    TenantConfig config;
    for (int i = 0; i < 8; ++i) {
      const std::string name = "t" + std::to_string(i);
      ASSERT_TRUE(registry.Create(name, config).ok());
      ASSERT_TRUE(registry.AddBatch(name, values).ok());
    }
    ASSERT_TRUE(registry.CheckpointNow().ok());
  }

  for (const std::size_t partitions : {std::size_t{1}, std::size_t{4},
                                       std::size_t{7}}) {
    RegistryOptions options;
    options.checkpoint_path = path;
    options.num_partitions = partitions;
    SketchRegistry recovered(options);
    ASSERT_TRUE(recovered.RecoverFromDisk().ok());
    EXPECT_EQ(recovered.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      const std::string name = "t" + std::to_string(i);
      EXPECT_EQ(recovered.Stats(name).count, values.size()) << name;
      EXPECT_TRUE(recovered.Query(name, 0.5).ok()) << name;
    }
  }
  std::remove(path.c_str());
}

TEST(RegistryTest, CheckpointRecoverRoundTrip) {
  const std::string path = TempPath("registry_ckpt");
  const std::vector<Value> values = UniformStream(50000, 11);

  RegistryStats before;
  {
    RegistryOptions options;
    options.checkpoint_path = path;
    SketchRegistry registry(options);
    TenantConfig unknown_cfg;
    TenantConfig kll_cfg;
    kll_cfg.kind = SketchKind::kKll;
    ASSERT_TRUE(registry.Create("u", unknown_cfg).ok());
    ASSERT_TRUE(registry.Create("k", kll_cfg).ok());
    for (std::size_t i = 0; i < values.size(); i += 5000) {
      std::span<const Value> batch(values.data() + i, 5000);
      ASSERT_TRUE(registry.AddBatch("u", batch).ok());
      ASSERT_TRUE(registry.AddBatch("k", batch).ok());
    }
    ASSERT_TRUE(registry.CheckpointNow().ok());
    before = registry.GlobalStats();
  }

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry recovered(options);
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.GlobalStats().total_count, before.total_count);
  EXPECT_EQ(recovered.Stats("u").count, values.size());
  EXPECT_EQ(recovered.Stats("k").count, values.size());
  EXPECT_EQ(recovered.Stats("k").config.kind, SketchKind::kKll);

  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const char* tenant : {"u", "k"}) {
    Result<Value> answer = recovered.Query(tenant, 0.5);
    ASSERT_TRUE(answer.ok());
    EXPECT_NEAR(RankOf(sorted, answer.value()), 0.5, 0.01);
  }

  // Recovered tenants keep ingesting.
  ASSERT_TRUE(recovered.AddBatch("u", std::vector<Value>{0.5}).ok());
  EXPECT_EQ(recovered.Stats("u").count, values.size() + 1);

  std::remove(path.c_str());
}

TEST(RegistryTest, RecoverRefusesRetiredShardedTenantByName) {
  // A v2 checkpoint as a build that still had the sharded kind wrote it:
  // one unknown_n tenant, then one tenant of kind byte 1.
  UnknownNOptions sketch_options;
  sketch_options.eps = 0.05;
  UnknownNSketch sketch =
      std::move(UnknownNSketch::Create(sketch_options)).value();
  sketch.AddBatch(UniformStream(1000, 5));
  const std::vector<std::uint8_t> blob = sketch.Serialize();

  BinaryWriter writer;
  writer.PutU32(0x4D524C52);  // "MRLR"
  writer.PutU8(2);
  writer.PutU64(2);
  const auto put_tenant = [&](const std::string& name, std::uint8_t kind) {
    writer.PutU16(static_cast<std::uint16_t>(name.size()));
    for (char c : name) writer.PutU8(static_cast<std::uint8_t>(c));
    writer.PutU8(kind);
    writer.PutDouble(0.05);  // eps
    writer.PutDouble(1e-4);  // delta
    writer.PutI32(4);        // reserved slot (the old shard count)
    writer.PutU64(1);        // seed
    writer.PutU32(static_cast<std::uint32_t>(blob.size()));
    for (std::uint8_t byte : blob) writer.PutU8(byte);
  };
  put_tenant("keep", 0);
  put_tenant("legacy-wide", 1);
  std::vector<std::uint8_t> bytes = writer.Take();
  const std::uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  const std::string path = TempPath("registry_ckpt_sharded");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry recovered(options);
  const Status status = recovered.RecoverFromDisk();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'legacy-wide'"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("unknown_n"), std::string::npos)
      << status.message();
  // All or nothing: the valid tenant before it is not installed either.
  EXPECT_EQ(recovered.size(), 0u);
  EXPECT_FALSE(recovered.Stats("keep").present);

  std::remove(path.c_str());
}

// tests/data/registry_v2_parent.mrlr was written by CheckpointNow before the
// sharded kind was removed, when every tenant record carried a shard count
// (default 4) in what is now the reserved slot. Tenants: "mrl" (unknown_n,
// seed 11), "kll" (seed 12), "dres" (det_reservoir, seed 13), all eps 0.05,
// delta 1e-3, each fed the same 300 values.
TEST(RegistryTest, RecoversCheckpointWrittenWithShardCountFour) {
  const std::string path =
      std::string(MRLQUANT_TEST_DATA_DIR) + "/registry_v2_parent.mrlr";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> file;
  for (int c; (c = std::fgetc(f)) != EOF;) {
    file.push_back(static_cast<std::uint8_t>(c));
  }
  std::fclose(f);
  // The first record's reserved slot really holds 4: header (13 bytes),
  // u16 name length, name, kind, eps, delta, then the i32 slot.
  ASSERT_GT(file.size(), 64u);
  const std::size_t name_len = file[13] | (file[14] << 8);
  const std::size_t slot = 15 + name_len + 1 + 8 + 8;
  EXPECT_EQ(file[slot], 4);
  EXPECT_EQ(file[slot + 1] | file[slot + 2] | file[slot + 3], 0);

  // Recover from a copy: Snapshot below re-checkpoints to the path.
  const std::string copy = TempPath("registry_ckpt_parent");
  f = std::fopen(copy.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
  std::fclose(f);
  RegistryOptions options;
  options.checkpoint_path = copy;
  SketchRegistry recovered(options);
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  ASSERT_EQ(recovered.size(), 3u);
  struct Expected {
    const char* name;
    SketchKind kind;
    std::uint64_t seed;
    double q50;
    double q90;
  };
  for (const Expected& want :
       {Expected{"mrl", SketchKind::kUnknownN, 11, 50.5, 90.5},
        Expected{"kll", SketchKind::kKll, 12, 49.5, 90.5},
        Expected{"dres", SketchKind::kDetReservoir, 13, 50.5, 90.5}}) {
    const TenantStats stats = recovered.Stats(want.name);
    ASSERT_TRUE(stats.present) << want.name;
    EXPECT_EQ(stats.config.kind, want.kind) << want.name;
    EXPECT_EQ(stats.config.eps, 0.05) << want.name;
    EXPECT_EQ(stats.config.delta, 1e-3) << want.name;
    EXPECT_EQ(stats.config.seed, want.seed) << want.name;
    EXPECT_EQ(stats.count, 300u) << want.name;
    EXPECT_EQ(recovered.Query(want.name, 0.5).value(), want.q50) << want.name;
    EXPECT_EQ(recovered.Query(want.name, 0.9).value(), want.q90) << want.name;
    // The sketch state is unchanged: its snapshot (u32 length + blob, the
    // checkpoint's own record framing) appears verbatim in the file.
    std::vector<std::uint8_t> snapshot;
    ASSERT_TRUE(recovered.Snapshot(want.name, &snapshot).ok());
    EXPECT_NE(std::search(file.begin(), file.end(), snapshot.begin(),
                          snapshot.end()),
              file.end())
        << want.name;
  }
  std::remove(copy.c_str());
}

TEST(RegistryTest, RecoverRejectsCorruptCheckpoint) {
  const std::string path = TempPath("registry_ckpt_corrupt");
  {
    RegistryOptions options;
    options.checkpoint_path = path;
    SketchRegistry registry(options);
    ASSERT_TRUE(registry.Create("t", TenantConfig{}).ok());
    ASSERT_TRUE(registry.CheckpointNow().ok());
  }

  // Flip one byte mid-file: the CRC trailer must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 10, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, 10, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry recovered(options);
  const Status status = recovered.RecoverFromDisk();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(recovered.size(), 0u);

  std::remove(path.c_str());
}

TEST(RegistryTest, MissingCheckpointIsEmptyRegistry) {
  RegistryOptions options;
  options.checkpoint_path = TempPath("registry_ckpt_missing");
  SketchRegistry registry(options);
  EXPECT_TRUE(registry.RecoverFromDisk().ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, SnapshotBlobMatchesSketchSerialization) {
  SketchRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.Create("t", TenantConfig{}).ok());
  ASSERT_TRUE(registry.AddBatch("t", UniformStream(10000, 3)).ok());

  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(registry.Snapshot("t", &blob).ok());
  ASSERT_FALSE(blob.empty());

  // An unknown-N tenant snapshot is a u32 length + the sketch's own v2
  // checkpoint bytes; the embedded blob must deserialize standalone.
  ASSERT_GE(blob.size(), 4u);
  const std::uint32_t len = static_cast<std::uint32_t>(blob[0]) |
                            (static_cast<std::uint32_t>(blob[1]) << 8) |
                            (static_cast<std::uint32_t>(blob[2]) << 16) |
                            (static_cast<std::uint32_t>(blob[3]) << 24);
  ASSERT_EQ(blob.size(), 4u + len);
  const std::vector<std::uint8_t> sketch_bytes(blob.begin() + 4, blob.end());
  Result<UnknownNSketch> sketch = UnknownNSketch::Deserialize(sketch_bytes);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_EQ(sketch.value().count(), 10000u);
}

}  // namespace
}  // namespace server
}  // namespace mrl
