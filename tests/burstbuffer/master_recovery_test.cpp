// Master crash-restart recovery tests: write-ahead journal replay,
// checkpoint + tail recovery, size-triggered checkpoints, double-crash
// during recovery, clients riding out the outage on the retry policy, the
// journal-off SPOF baseline, and the zero-metadata-loss invariant with a
// replicated KV tier (R=2).
#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "sim/sync.h"

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::Task;

// Small cluster with metadata journaling armed. Checkpoints are off by
// default (interval 0, no size trigger) so each test controls exactly what
// recovery has to replay; the retry policy lets clients ride out the
// master's downtime (the master's ports are unbound and its fabric node is
// down, so calls fail kUnavailable quickly and back off).
ClusterConfig md_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 8 * MiB;
  config.kv_memory_per_server = 128 * MiB;
  config.scheme = scheme;
  config.bb_md.journal = true;
  config.bb_md.checkpoint_interval_ns = 0;
  config.bb_md.journal_max_bytes = 0;
  config.retry.max_attempts = 12;
  config.retry.backoff_base_ns = 1 * ms;
  config.retry.backoff_max_ns = 20 * ms;
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

Task<void> check_file(Cluster& c, const std::string& path, std::uint64_t seed,
                      std::uint64_t bytes, bool& ok) {
  auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open(path, 1);
  CO_ASSERT(reader.is_ok());
  auto data = co_await reader.value()->read(0, bytes);
  CO_ASSERT(data.is_ok());
  CO_ASSERT(data.value().size() == bytes);
  ok = ok && verify_pattern(seed, 0, data.value());
}

TEST(MasterRecoveryTest, CrashBeforeFlushReplaysJournalAndLosesNothing) {
  // Two acked-but-unflushed blocks die with the master's volatile state.
  // Recovery replays the journal (no checkpoint exists), re-arms the dirty
  // blocks, and the flush pipeline drains them — zero loss, both readable.
  Cluster cluster(md_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 21, 8 * MiB);
    co_await write_file(c, "/b", 22, 8 * MiB);
    c.injector().crash_master_target(0);
    CO_ASSERT(c.bb_master().crashed());
    CO_ASSERT(c.bb_master().dirty_blocks() == 0u);  // volatile state gone
    co_await c.sim().delay(5 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().restarts() == 1u);
    CO_ASSERT(c.bb_master().recovered_files() == 2u);
    CO_ASSERT(c.bb_master().replayed_records() > 0u);
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/a", 21, 8 * MiB, ok);
    co_await check_file(c, "/b", 22, 8 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.bb_master().dirty_blocks(), 0u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.crashes"), 1u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.restarts"), 1u);
  EXPECT_GT(cluster.sim().metrics().counter_value("bb.md.journal_records"),
            0u);
}

TEST(MasterRecoveryTest, CrashWithScrubberOnLetsItsLoopEndSafely) {
  // The crash drops the master's scrubber while its pass loop sleeps (or
  // waits on a probe). The loop must wake into a live scrubber, see stop(),
  // and end; the restarted master's fresh scrubber keeps passing.
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.bb_scrub.interval_ns = 2 * ms;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 41, 8 * MiB);
    co_await c.sim().delay(3 * ms);
    CO_ASSERT(c.sim().metrics().counter_value("kv.scrub.passes") >= 1u);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(10 * ms);  // the old loop wakes meanwhile
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    co_await c.bb_master().wait_all_flushed();
    co_await c.sim().delay(5 * ms);
    ok = true;
    co_await check_file(c, "/a", 41, 8 * MiB, ok);
    c.bb_master().stop_heartbeat();
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  ASSERT_NE(cluster.bb_master().scrubber(), nullptr);
  EXPECT_GE(cluster.bb_master().scrubber()->passes(), 1u);
}

TEST(MasterRecoveryTest, CrashBetweenCheckpointAndTailReplaysOnlyTheTail) {
  // A checkpoint snapshots file /a; file /b lands in the journal tail
  // afterwards. Recovery installs the checkpoint and replays only the tail
  // records — both files survive, and the replay count stays below the
  // total record count (the checkpoint absorbed /a's records).
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.bb_md.checkpoint_interval_ns = 5 * ms;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 31, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    // Let the checkpoint timer fire and absorb /a's records.
    while (c.sim().metrics().counter_value("bb.md.checkpoints") == 0u) {
      co_await c.sim().delay(5 * ms);
    }
    const std::uint64_t total_records =
        c.sim().metrics().counter_value("bb.md.journal_records");
    co_await write_file(c, "/b", 32, 8 * MiB);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(5 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().recovered_files() == 2u);
    CO_ASSERT(c.bb_master().replayed_records() > 0u);
    CO_ASSERT(c.bb_master().replayed_records() < total_records);
    co_await c.bb_master().wait_all_flushed();
    c.bb_master().stop_heartbeat();  // stop the checkpoint timer
    ok = true;
    co_await check_file(c, "/a", 31, 8 * MiB, ok);
    co_await check_file(c, "/b", 32, 8 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_GE(cluster.sim().metrics().counter_value("bb.md.checkpoints"), 1u);
  EXPECT_GT(cluster.sim().metrics().counter_value("bb.md.journal_truncated"),
            0u);
}

TEST(MasterRecoveryTest, SizeTriggeredCheckpointsBoundReplayAndStopWithIt) {
  // No checkpoint timer: a journal that outgrows journal_max_bytes
  // checkpoints at once and truncates the prefix the checkpoint subsumes,
  // so a crash replays only the records after the last one. After
  // stop_heartbeat() appends go on, but no checkpoint starts.
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.bb_md.journal_max_bytes = 256;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    MetricRegistry& metrics = c.sim().metrics();
    co_await write_file(c, "/a", 101, 16 * MiB);
    co_await write_file(c, "/b", 102, 16 * MiB);
    co_await c.bb_master().wait_all_flushed();
    co_await c.sim().delay(5 * ms);  // the last records become durable
    CO_ASSERT(metrics.counter_value("bb.md.checkpoints") >= 2u);
    const std::uint64_t truncated =
        metrics.counter_value("bb.md.journal_truncated");
    const std::uint64_t records =
        metrics.counter_value("bb.md.journal_records");
    CO_ASSERT(truncated > 0u);
    CO_ASSERT(truncated < records);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(5 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().recovered_files() == 2u);
    // Exactly the records no checkpoint subsumed.
    CO_ASSERT(c.bb_master().replayed_records() == records - truncated);
    co_await c.bb_master().wait_all_flushed();

    c.bb_master().stop_heartbeat();
    co_await c.sim().delay(5 * ms);  // a checkpoint under way finishes
    const std::uint64_t checkpoints =
        metrics.counter_value("bb.md.checkpoints");
    const std::uint64_t appended =
        metrics.counter_value("bb.md.journal_records");
    co_await write_file(c, "/c", 103, 16 * MiB);
    co_await c.bb_master().wait_all_flushed();
    co_await c.sim().delay(5 * ms);
    CO_ASSERT(metrics.counter_value("bb.md.journal_records") > appended);
    CO_ASSERT(metrics.counter_value("bb.md.checkpoints") == checkpoints);
    ok = true;
    co_await check_file(c, "/a", 101, 16 * MiB, ok);
    co_await check_file(c, "/b", 102, 16 * MiB, ok);
    co_await check_file(c, "/c", 103, 16 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.recovery_errors"),
            0u);
}

TEST(MasterRecoveryTest, DoubleCrashDuringRecoveryStillConverges) {
  // The master crashes again while the first recovery is still loading the
  // journal from the KV tier. The generation bump retires the first
  // recovery task mid-flight; the second restart runs recovery to
  // completion from the same durable state.
  Cluster cluster(md_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 41, 8 * MiB);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(2 * ms);
    c.injector().restart_master_target(0);
    // Recovery is now reading `!md:` keys from the KV servers; crash again
    // before it can possibly finish.
    co_await c.sim().delay(20 * us);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(2 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(!c.bb_master().crashed());
    CO_ASSERT(c.bb_master().recovered_files() >= 1u);
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/a", 41, 8 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.crashes"), 2u);
}

TEST(MasterRecoveryTest, WriterRidesOutScheduledMasterCrash) {
  // The injector's faults.master.* schedule kills the master mid-write.
  // The writer's control-plane RPCs fail kUnavailable, back off on the
  // retry policy, and succeed against the recovered master; the idempotent
  // create-token / expected-block-index protocol absorbs any replays.
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.faults.enabled = true;
  config.faults.master_first_ns = 2 * ms;
  config.faults.master_downtime_ns = 10 * ms;
  config.faults.master_count = 1;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/ride", 51, 24 * MiB);  // 3 blocks, crash lands inside
    co_await c.bb_master().wait_recovered();
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/ride", 51, 24 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.bb_master().restarts(), 1u);
  EXPECT_EQ(
      cluster.sim().metrics().counter_value("faults.injected{kind=master_crash}"),
      1u);
  EXPECT_GT(cluster.sim().metrics().counter_value("net.retry.attempts"), 0u);
  EXPECT_GT(cluster.sim().metrics().counter_value("net.retry.recovered"), 0u);
}

TEST(MasterRecoveryTest, JournalOffCrashIsTheSeedSinglePointOfFailure) {
  // With bb.md.journal off (the default) a master crash loses every file's
  // metadata even though the data survives in the KV tier — the seed
  // behaviour this subsystem exists to fix. The restarted master serves
  // fresh writes.
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.bb_md.journal = false;
  Cluster cluster(config);
  bool checked = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/gone", 61, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    c.injector().crash_master_target(0);
    co_await c.sim().delay(5 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().recovered_files() == 0u);
    CO_ASSERT(c.bb_master().replayed_records() == 0u);
    auto reader = co_await c.filesystem(FsKind::kBurstBuffer).open("/gone", 1);
    CO_ASSERT(!reader.is_ok());  // metadata is gone
    co_await write_file(c, "/fresh", 62, 8 * MiB);
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/fresh", 62, 8 * MiB, ok);
  }(cluster, checked));
  cluster.sim().run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.journal_records"),
            0u);
  EXPECT_EQ(cluster.sim().metrics().counter_value("bb.md.restarts"), 1u);
}

TEST(MasterRecoveryTest, ZeroMetadataLossWithReplicatedJournalR2) {
  // The invariant the issue names: with R=2 the `!md:` journal keys are
  // replicated, so losing one KV server AND the master at once still
  // recovers every file — journal reads fail over to the surviving
  // replica, and so do the data-chunk reads afterwards. Flushers homed on
  // the dead KV node park (their RPCs all fail at the source) and hand
  // flush work to workers on live nodes instead of burning retry budget.
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.kv_servers = 3;  // a live re-replication target must exist
  config.kv_client.replication_factor = 2;
  config.kv_client.failover = true;
  config.kv_client.ack = kv::AckMode::kAll;
  config.bb_heartbeat_interval_ns = 5 * ms;
  Cluster cluster(config);
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 71, 8 * MiB);
    co_await write_file(c, "/b", 72, 8 * MiB);
    c.injector().crash_target(0);         // one KV server dies...
    c.injector().crash_master_target(0);  // ...and the master with it
    co_await c.sim().delay(5 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().recovered_files() == 2u);
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/a", 71, 8 * MiB, ok);
    co_await check_file(c, "/b", 72, 8 * MiB, ok);
    c.bb_master().stop_heartbeat();
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
  EXPECT_EQ(cluster.bb_master().recovered_files(), 2u);
}

TEST(MasterRecoveryTest, FirstRecordAfterARestartIsJournaled) {
  // The crashed incarnation's journal writer is still parked on the record
  // queue when the restarted master appends its first record. That record
  // must reach the journal: a second crash then recovers the file it
  // created instead of stopping replay at a hole.
  Cluster cluster(md_config(bb::Scheme::kAsync));
  bool verified = false;
  cluster.sim().spawn([](Cluster& c, bool& ok) -> Task<void> {
    co_await write_file(c, "/a", 91, 8 * MiB);
    c.injector().crash_master_target(0);
    co_await c.sim().delay(2 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    co_await write_file(c, "/b", 92, 8 * MiB);  // its create is record one
    c.injector().crash_master_target(0);
    co_await c.sim().delay(2 * ms);
    c.injector().restart_master_target(0);
    co_await c.bb_master().wait_recovered();
    CO_ASSERT(c.bb_master().recovered_files() == 1u + 2u);
    co_await c.bb_master().wait_all_flushed();
    ok = true;
    co_await check_file(c, "/a", 91, 8 * MiB, ok);
    co_await check_file(c, "/b", 92, 8 * MiB, ok);
  }(cluster, verified));
  cluster.sim().run();
  EXPECT_TRUE(verified);
  EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
}

// R=2 with the journal, checkpoints, the failure detector and the scrubber
// all on, so a crash finds master tasks suspended at every kind of wakeup.
ClusterConfig sweep_config() {
  ClusterConfig config = md_config(bb::Scheme::kAsync);
  config.kv_servers = 3;
  config.block_size = 2 * MiB;
  config.kv_memory_per_server = 32 * MiB;
  config.kv_client.replication_factor = 2;
  config.kv_client.failover = true;
  config.kv_client.ack = kv::AckMode::kAll;
  config.bb_heartbeat_interval_ns = 1 * ms;
  config.bb_scrub.interval_ns = 2 * ms;
  config.bb_md.checkpoint_interval_ns = 1 * ms;
  return config;
}

// Writes two files, waits for the crash (if any) to be over and for every
// block to reach Lustre, then reads both files back.
Task<void> sweep_cycle(Cluster& c, sim::Event* restarted, bool& ok) {
  co_await write_file(c, "/a", 81, 4 * MiB);
  co_await write_file(c, "/b", 82, 3 * MiB + 12345);
  if (restarted != nullptr) co_await restarted->wait();
  co_await c.bb_master().wait_recovered();
  co_await c.bb_master().wait_all_flushed();
  while (c.sim().metrics().counter_value("bb.md.checkpoints") == 0u) {
    co_await c.sim().delay(1 * ms);
  }
  c.bb_master().stop_heartbeat();
  ok = true;
  co_await check_file(c, "/a", 81, 4 * MiB, ok);
  co_await check_file(c, "/b", 82, 3 * MiB + 12345, ok);
}

TEST(MasterRecoveryTest, CrashSweepAcrossMemberSuspensions) {
  // One crash at each of 40 instants spread over a whole
  // write/flush/checkpoint cycle: the crash lands on flush workers mid-read
  // and mid-Lustre-write, the journal writer mid-append, a checkpoint
  // mid-write, the detector mid-probe, the scrubber mid-pass, and handlers
  // mid-admission. Every instant keeps every acknowledged block, leaves
  // both files readable, and lets run() end.
  sim::SimTime cycle = 0;
  {
    Cluster cluster(sweep_config());
    bool ok = false;
    cluster.sim().spawn(sweep_cycle(cluster, nullptr, ok));
    cluster.sim().run();
    ASSERT_TRUE(ok);
    cycle = cluster.sim().now();
  }
  constexpr sim::SimTime kInstants = 40;
  for (sim::SimTime i = 1; i <= kInstants; ++i) {
    const sim::SimTime at = cycle * i / (kInstants + 1);
    SCOPED_TRACE("crash at " + std::to_string(at) + " ns");
    Cluster cluster(sweep_config());
    sim::Event restarted(cluster.sim());
    bool ok = false;
    cluster.sim().spawn([](Cluster& c, sim::SimTime when,
                           sim::Event& done) -> Task<void> {
      co_await c.sim().delay(when);
      c.injector().crash_master_target(0);
      co_await c.sim().delay(1 * ms);
      c.injector().restart_master_target(0);
      done.set();
    }(cluster, at, restarted));
    cluster.sim().spawn(sweep_cycle(cluster, &restarted, ok));
    cluster.sim().run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(cluster.bb_master().lost_blocks(), 0u);
    EXPECT_EQ(cluster.bb_master().restarts(), 1u);
  }
}

}  // namespace
}  // namespace hpcbb
