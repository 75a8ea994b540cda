// End-to-end data-integrity tests: seed-deterministic corruption injection,
// verified reads with read-repair at R=2, partial-read detection (the
// regression the per-chunk CRCs fix), scrubber-driven at-rest repair,
// unrepairable-at-R=1 quarantine that keeps corrupt bytes off Lustre, and
// provenance: a chunk key holding another chunk's (self-consistent) bytes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "testing/co_assert.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "kvstore/ring.h"
#include "sim/sync.h"

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::Task;

ClusterConfig small_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = scheme;
  return config;
}

Task<void> write_file(Cluster& c, const std::string& path, std::uint64_t seed,
                      std::uint64_t bytes) {
  fs::FileSystem& fs = c.filesystem(FsKind::kBurstBuffer);
  auto writer = co_await fs.create(path, 0);
  CO_ASSERT(writer.is_ok());
  CO_ASSERT_OK(co_await writer.value()->append(
      make_bytes(pattern_bytes(seed, 0, bytes))));
  CO_ASSERT_OK(co_await writer.value()->close());
}

// Corrupt the PRIMARY replica of `key`: the copy every reader (and the
// scrubber) fetches first. The ring is a pure function of the server count,
// so the test computes placement the same way every client does.
bool corrupt_primary(Cluster& c, const std::string& key,
                     std::uint64_t selector = 7) {
  const std::uint32_t primary =
      kv::HashRing(c.kv_server_count()).server_for(key);
  return !c.kv_server(primary)
              .store()
              .corrupt_one(selector, CorruptKind::kBitFlip, key)
              .empty();
}

TEST(IntegrityTest, VerifiedGetDetectsRepairsAndServesGoodDataAtR2) {
  // One replica of a buffer-resident chunk goes bad; the read detects the
  // mismatch, fails over to the good replica, overwrites the bad copy, and
  // the caller sees correct bytes throughout.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.kv_client.replication_factor = 2;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/f", 21, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(corrupt_primary(c, bb::chunk_key("/f", 0, 0)));
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/f", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(21, 0, data.value());
    // Detection + repair happened on the read path.
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") >= 1u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.repaired") >= 1u);
    // The repaired copy verifies: a second read detects nothing new.
    const std::uint64_t detected_before =
        c.sim().metrics().counter_value("kv.integrity.detected");
    auto again = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(again.is_ok());
    CO_ASSERT(verify_pattern(21, 0, again.value()));
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") ==
              detected_before);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().quarantined_blocks(), 0u);
}

TEST(IntegrityTest, CorruptingOneReplicaLeavesEverySharedCopyIntact) {
  // The KV items keep slices of the writer's buffer, so after the flush one
  // buffer backs the writer, both replicas and Lustre's pages. Corrupting
  // one replica damages that replica alone: its next GET reports kDataLoss,
  // and read-repair heals it from the other.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.kv_client.replication_factor = 2;
  Cluster cluster(config);
  bool checked = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    const BytesPtr sent = make_bytes(pattern_bytes(31, 0, 8 * MiB));
    fs::FileSystem& bb = c.filesystem(FsKind::kBurstBuffer);
    auto writer = co_await bb.create("/s", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(sent));
    CO_ASSERT_OK(co_await writer.value()->close());
    co_await c.bb_master().wait_all_flushed();

    const std::string key = bb::chunk_key("/s", 0, 0);
    const auto replicas =
        kv::HashRing(c.kv_server_count()).successors(key, 2);
    CO_ASSERT(replicas.size() == 2u);
    kv::KvStore& damaged = c.kv_server(replicas[0]).store();
    kv::KvStore& intact = c.kv_server(replicas[1]).store();
    CO_ASSERT(!damaged.corrupt_one(7, CorruptKind::kBitFlip, key).empty());

    CO_ASSERT(verify_pattern(31, 0, *sent));
    auto other = intact.get(key);
    CO_ASSERT(other.is_ok());
    CO_ASSERT(verify_pattern(31, 0, other.value()));
    auto lustre = co_await c.filesystem(FsKind::kLustre)
                      .open(c.bb_master().lustre_path("/s"), 1);
    CO_ASSERT(lustre.is_ok());
    auto durable = co_await lustre.value()->read(0, 8 * MiB);
    CO_ASSERT(durable.is_ok());
    CO_ASSERT(verify_pattern(31, 0, durable.value()));
    CO_ASSERT(damaged.get(key).code() == StatusCode::kDataLoss);

    auto reader = co_await bb.open("/s", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    CO_ASSERT(verify_pattern(31, 0, data.value()));
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") >= 1u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.repaired") >= 1u);
    auto healed = damaged.get(key);
    CO_ASSERT(healed.is_ok());
    CO_ASSERT(verify_pattern(31, 0, healed.value()));
    ok = true;
  }(cluster, checked));
  cluster.sim().run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(cluster.bb_master().quarantined_blocks(), 0u);
}

TEST(IntegrityTest, PartialReadDetectsMidBlockCorruption) {
  // Regression for the old full-block-only validate() guard: corrupt a
  // mid-block chunk at R=1, then read a sub-range that covers it. The old
  // code served the corrupt bytes silently; per-chunk CRCs detect the
  // mismatch and the read falls through to Lustre for good data.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/p", 22, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    // Chunk 3 sits mid-block: offset 3 MiB of an 8 MiB block.
    CO_ASSERT(corrupt_primary(c, bb::chunk_key("/p", 0, 3)));
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/p", 1);
    CO_ASSERT(reader.is_ok());
    const std::uint64_t off = 3 * MiB + 100;
    auto data = co_await reader.value()->read(off, 2 * KiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(22, off, data.value());
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") >= 1u);
    CO_ASSERT(
        c.sim().metrics().counter_value("bb.read.lustre_fallbacks") >= 1u);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(IntegrityTest, PartialReadDetectsCorruptLocalReplica) {
  // BB-Local: the node-local RAM-disk copy goes bad; a partial read now
  // reads a chunk-aligned covering range, catches the mismatch, and falls
  // through to the (good) buffer copy.
  Cluster cluster(small_config(bb::Scheme::kLocal));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/l", 23, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    // Flip a bit at byte 5 MiB of the agent's 8 MiB replica object.
    CO_ASSERT(!c.agent(0)
                   .store()
                   .corrupt_one(bb::local_object("/l", 0), 5 * MiB,
                                CorruptKind::kBitFlip)
                   .empty());
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/l", 0);
    CO_ASSERT(reader.is_ok());
    const std::uint64_t off = 5 * MiB + 17;
    auto data = co_await reader.value()->read(off, 4 * KiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(23, off, data.value());
    CO_ASSERT(
        c.sim().metrics().counter_value("bb.read.local_crc_failures") >= 1u);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(IntegrityTest, ScrubberRepairsAtRestCorruption) {
  // Nobody reads the file; the background scrubber still finds the bad
  // replica on its pass and read-repair fixes it.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.kv_client.replication_factor = 2;
  config.bb_scrub.interval_ns = 50 * ms;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/s", 24, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(corrupt_primary(c, bb::chunk_key("/s", 0, 2)));
    // Two scrub intervals: the pass after the corruption must cover it.
    co_await c.sim().delay(120 * ms);
    CO_ASSERT(c.sim().metrics().counter_value("kv.scrub.passes") >= 1u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") >= 1u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.repaired") >= 1u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.scrub.unrepairable") == 0u);
    // Post-repair, a reader sees good bytes without tripping detection.
    const std::uint64_t detected_before =
        c.sim().metrics().counter_value("kv.integrity.detected");
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/s", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(24, 0, data.value());
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") ==
              detected_before);
    c.bb_master().stop_heartbeat();
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  ASSERT_NE(cluster.bb_master().scrubber(), nullptr);
  EXPECT_GE(cluster.bb_master().scrubber()->passes(), 1u);
  EXPECT_EQ(cluster.bb_master().quarantined_blocks(), 0u);
}

TEST(IntegrityTest, UnrepairableDirtyBlockIsQuarantinedNotFlushed) {
  // R=1, flush paced far out: corrupt the only copy of a dirty chunk before
  // the flusher reads it. The flusher must detect the mismatch, quarantine
  // the block, and never write the corrupt bytes to Lustre; readers get
  // kDataLoss instead of garbage.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.bb_flowctl.background_pace_ns = 100 * ms;
  Cluster cluster(config);
  bool saw_data_loss = false;
  cluster.sim().spawn([](Cluster& c, bool& loss) -> Task<void> {
    co_await write_file(c, "/q", 25, 8 * MiB);
    // The block is sealed dirty; its flush is paced ~100 ms out.
    CO_ASSERT(c.bb_master().dirty_blocks() == 1u);
    CO_ASSERT(corrupt_primary(c, bb::chunk_key("/q", 0, 1)));
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(c.bb_master().quarantined_blocks() == 1u);
    CO_ASSERT(c.bb_master().flushed_blocks() == 0u);
    CO_ASSERT(c.bb_master().lost_blocks() == 0u);
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/q", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(!data.is_ok());
    loss = data.code() == StatusCode::kDataLoss;
  }(cluster, saw_data_loss));
  cluster.sim().run();
  EXPECT_TRUE(saw_data_loss);
  EXPECT_EQ(cluster.bb_master().quarantined_blocks(), 1u);
  EXPECT_EQ(cluster.bb_master().flushed_blocks(), 0u);
  EXPECT_GE(cluster.sim().metrics().counter_value("bb.quarantined_blocks"),
            1u);
}

// Stores chunk `from`'s bytes of pattern file `seed` under chunk `to`'s key
// on that key's primary, through KvStore::set: the item CRC matches the bytes
// it holds, so the KV layer sees a healthy value that the writer never
// sealed under this key.
bool misplace_chunk(Cluster& c, const std::string& path, std::uint64_t seed,
                    std::uint32_t from, std::uint32_t to, bool pinned) {
  const std::string key = bb::chunk_key(path, 0, to);
  const std::uint32_t primary =
      kv::HashRing(c.kv_server_count()).server_for(key);
  const Bytes bytes = pattern_bytes(seed, std::uint64_t{from} * MiB, MiB);
  return c.kv_server(primary)
      .store()
      .set(key, bytes, kv::SetOptions{.pinned = pinned})
      .is_ok();
}

TEST(IntegrityTest, ReaderRejectsAnotherChunksBytesUnderAChunkKey) {
  // The KV item is internally consistent, so only the comparison of its
  // CRC with the writer's can tell. The reader must count the mismatch and
  // fall through to Lustre for the right bytes.
  Cluster cluster(small_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/m", 27, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(misplace_chunk(c, "/m", 27, 5, 4, /*pinned=*/false));
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/m", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(27, 0, data.value());
    MetricRegistry& m = c.sim().metrics();
    CO_ASSERT(m.counter_value("bb.read.buffer_crc_failures") == 1u);
    CO_ASSERT(m.counter_value("bb.read.lustre_fallbacks") >= 1u);
    CO_ASSERT(m.counter_value("kv.integrity.detected") == 0u);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(IntegrityTest, FlusherNeverWritesAnotherChunksBytes) {
  // R=1, flush paced far out: before the flusher reads the dirty block, its
  // chunk 1 key comes to hold chunk 2's bytes. The flusher must quarantine
  // the block and write nothing of it to Lustre.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.bb_flowctl.background_pace_ns = 100 * ms;
  Cluster cluster(config);
  bool saw_data_loss = false;
  cluster.sim().spawn([](Cluster& c, bool& loss) -> Task<void> {
    co_await write_file(c, "/w", 28, 8 * MiB);
    CO_ASSERT(c.bb_master().dirty_blocks() == 1u);
    CO_ASSERT(misplace_chunk(c, "/w", 28, 2, 1, /*pinned=*/true));
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(c.bb_master().quarantined_blocks() == 1u);
    CO_ASSERT(c.bb_master().flushed_blocks() == 0u);
    CO_ASSERT(c.sim().metrics().counter_value("kv.integrity.detected") == 0u);
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/w", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(!data.is_ok());
    loss = data.code() == StatusCode::kDataLoss;
  }(cluster, saw_data_loss));
  cluster.sim().run();
  EXPECT_TRUE(saw_data_loss);
  EXPECT_EQ(cluster.bb_master().flushed_bytes(), 0u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("lustre.write_bytes"), 0u);
}

TEST(IntegrityTest, ScrubberRepairsAnotherChunksBytesFromLustre) {
  // A flushed block's chunk 2 key holds chunk 3's bytes. Nobody reads the
  // file; the scrubber's CRC comparison finds it and rewrites the chunk
  // from Lustre, so a later read is served from the buffer.
  ClusterConfig config = small_config(bb::Scheme::kAsync);
  config.bb_scrub.interval_ns = 50 * ms;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/r", 29, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    CO_ASSERT(misplace_chunk(c, "/r", 29, 3, 2, /*pinned=*/false));
    co_await c.sim().delay(120 * ms);
    // Stopped before any check, so a failing one still lets the run end.
    c.bb_master().stop_heartbeat();
    MetricRegistry& m = c.sim().metrics();
    CO_ASSERT(m.counter_value("kv.scrub.repaired") >= 1u);
    CO_ASSERT(m.counter_value("kv.scrub.unrepairable") == 0u);
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/r", 1);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, 8 * MiB);
    CO_ASSERT(data.is_ok());
    ok = verify_pattern(29, 0, data.value());
    CO_ASSERT(m.counter_value("bb.read.buffer_crc_failures") == 0u);
    CO_ASSERT(m.counter_value("bb.read.lustre_fallbacks") == 0u);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
}

TEST(IntegrityTest, ScheduledCorruptionIsSeedDeterministic) {
  // Two runs with the same seed and corruption schedule produce identical
  // injection counters and identical integrity outcomes.
  const auto run = [](std::uint64_t seed) {
    ClusterConfig config = small_config(bb::Scheme::kAsync);
    config.kv_client.replication_factor = 2;
    config.faults.enabled = true;
    config.faults.seed = seed;
    config.faults.corrupt_first_ns = 20 * ms;
    config.faults.corrupt_period_ns = 10 * ms;
    config.faults.corrupt_count = 6;
    config.bb_scrub.interval_ns = 40 * ms;
    Cluster cluster(config);
    cluster.sim().spawn([](Cluster& c) -> Task<void> {
      co_await write_file(c, "/d", 26, 8 * MiB);
      co_await c.bb_master().wait_all_flushed();
      co_await c.sim().delay(200 * ms);
      c.bb_master().stop_heartbeat();
    }(cluster));
    cluster.sim().run();
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : cluster.sim().metrics().counters()) {
      if (name.starts_with("faults.injected") ||
          name.starts_with("kv.integrity.") ||
          name.starts_with("kv.scrub.")) {
        out[name] = value;
      }
    }
    return out;
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a, b);
  // The schedule actually fired.
  std::uint64_t injected = 0;
  for (const auto& [name, value] : a) {
    if (name.starts_with("faults.injected{kind=corrupt.")) injected += value;
  }
  EXPECT_GE(injected, 1u);
}

}  // namespace
}  // namespace hpcbb
