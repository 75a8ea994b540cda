// The configuration key table (cluster/config.h): every key reaches its
// field, a typo or malformed value is rejected with the key's name, and
// examples/example.conf documents exactly the keys the tables accept.
#include "cluster/config.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "obs/health.h"
#include "runner_keys.h"

namespace hpcbb::cluster {
namespace {

using namespace hpcbb::duration;  // NOLINT
using examples::RunnerOptions;

using Entries = std::vector<std::pair<std::string, std::string>>;

Properties props_of(const Entries& entries) {
  Properties props;
  for (const auto& [key, value] : entries) props.set(key, value);
  return props;
}

// What the experiment runner does with its command line.
Status apply_runner(const Properties& props) {
  ClusterConfig config;
  RunnerOptions options;
  return apply_properties(props, config, examples::kRunnerKeys, options);
}

TEST(ConfigTableTest, EveryClusterKeyReachesItsField) {
  ClusterConfig c;
  ASSERT_TRUE(apply_properties(props_of({{"bb.scheme", "sync"},
                                         {"bb.promote", "1"},
                                         {"cluster.nodes", "16"},
                                         {"kv.servers", "2"},
                                         {"kv.memory", "64m"},
                                         {"block.size", "8m"},
                                         {"bb.heartbeat", "5ms"},
                                         {"bb.suspect_after", "3"},
                                         {"bb.dead_after", "6"},
                                         {"kv.failover", "yes"},
                                         {"kv.repl.factor", "2"},
                                         {"kv.repl.ack", "all"},
                                         {"bb.md.journal", "true"},
                                         {"bb.md.checkpoint_interval", "50ms"},
                                         {"bb.md.journal_max_bytes", "2m"},
                                         {"kv.scrub.interval", "20ms"},
                                         {"kv.scrub.pace", "3us"}}),
                               c)
                  .is_ok());
  EXPECT_EQ(c.scheme, bb::Scheme::kSync);
  EXPECT_TRUE(c.bb_promote_on_read);
  EXPECT_EQ(c.compute_nodes, 16u);
  EXPECT_EQ(c.kv_servers, 2u);
  EXPECT_EQ(c.kv_memory_per_server, 64 * MiB);
  EXPECT_EQ(c.block_size, 8 * MiB);
  EXPECT_EQ(c.bb_heartbeat_interval_ns, 5 * ms);
  EXPECT_EQ(c.bb_suspect_after, 3u);
  EXPECT_EQ(c.bb_dead_after, 6u);
  EXPECT_TRUE(c.kv_client.failover);
  EXPECT_EQ(c.kv_client.replication_factor, 2u);
  EXPECT_EQ(c.kv_client.ack, kv::AckMode::kAll);
  EXPECT_TRUE(c.bb_md.journal);
  EXPECT_EQ(c.bb_md.checkpoint_interval_ns, 50 * ms);
  EXPECT_EQ(c.bb_md.journal_max_bytes, 2 * MiB);
  EXPECT_EQ(c.bb_scrub.interval_ns, 20 * ms);
  EXPECT_EQ(c.bb_scrub.chunk_pace_ns, 3 * us);

  ASSERT_TRUE(apply_properties(props_of({{"faults.rpc.delay_prob", "0.125"},
                                         {"faults.rpc.delay", "3ms"},
                                         {"faults.crash.period", "400ms"},
                                         {"faults.crash.downtime", "150ms"},
                                         {"faults.limp.first", "7ms"},
                                         {"faults.limp.period", "9ms"},
                                         {"faults.limp.duration", "11ms"},
                                         {"faults.limp.count", "3"},
                                         {"faults.limp.factor", "1e6"},
                                         {"faults.master.first", "13ms"},
                                         {"faults.master.period", "17ms"},
                                         {"faults.master.downtime", "19ms"},
                                         {"faults.master.count", "2"},
                                         {"faults.corrupt.first", "23ms"},
                                         {"faults.corrupt.period", "29ms"},
                                         {"faults.corrupt.count", "31"}}),
                               c)
                  .is_ok());
  const faults::InjectorParams& f = c.faults;
  EXPECT_DOUBLE_EQ(f.rpc_delay_prob, 0.125);
  EXPECT_EQ(f.rpc_delay_ns, 3 * ms);
  EXPECT_EQ(f.crash_period_ns, 400 * ms);
  EXPECT_EQ(f.crash_downtime_ns, 150 * ms);
  EXPECT_EQ(f.limp_first_ns, 7 * ms);
  EXPECT_EQ(f.limp_period_ns, 9 * ms);
  EXPECT_EQ(f.limp_duration_ns, 11 * ms);
  EXPECT_EQ(f.limp_count, 3u);
  EXPECT_DOUBLE_EQ(f.limp_factor, storage::Device::kMaxSlowdown);
  EXPECT_EQ(f.master_first_ns, 13 * ms);
  EXPECT_EQ(f.master_period_ns, 17 * ms);
  EXPECT_EQ(f.master_downtime_ns, 19 * ms);
  EXPECT_EQ(f.master_count, 2u);
  EXPECT_EQ(f.corrupt_first_ns, 23 * ms);
  EXPECT_EQ(f.corrupt_period_ns, 29 * ms);
  EXPECT_EQ(f.corrupt_count, 31u);
}

// Formerly FlowControlParams::from_properties.
TEST(FlowControlParamsTest, FromPropertiesReadsKnobs) {
  const auto props = Properties::parse(
      "bb.flowctl.low=0.4\n"
      "bb.flowctl.high=0.6\n"
      "bb.flowctl.critical=0.8\n"
      "bb.flowctl.pace_us=250\n");
  ASSERT_TRUE(props.is_ok());
  ClusterConfig config;
  config.bb_flowctl.capacity_bytes = 123;
  ASSERT_TRUE(apply_properties(props.value(), config).is_ok());
  const flowctl::FlowControlParams& p = config.bb_flowctl;
  EXPECT_DOUBLE_EQ(p.low_watermark, 0.4);
  EXPECT_DOUBLE_EQ(p.high_watermark, 0.6);
  EXPECT_DOUBLE_EQ(p.critical_watermark, 0.8);
  EXPECT_EQ(p.background_pace_ns, 250 * us);
  EXPECT_EQ(p.capacity_bytes, 123u);
  // Missing keys keep the caller's values.
  ClusterConfig untouched;
  untouched.bb_flowctl.low_watermark = 0.3;
  ASSERT_TRUE(apply_properties(Properties{}, untouched).is_ok());
  EXPECT_DOUBLE_EQ(untouched.bb_flowctl.low_watermark, 0.3);
  // The master always derives capacity from kv.memory x kv.servers, so the
  // old bb.flowctl.capacity key never had an effect; it is not a key now.
  const Status dead = apply_runner(props_of({{"bb.flowctl.capacity", "64m"}}));
  EXPECT_EQ(dead.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dead.message().find("bb.flowctl.capacity"), std::string::npos);
}

// Formerly RetryPolicy::from_properties.
TEST(RetryPolicyTest, FromPropertiesReadsKnobs) {
  ClusterConfig config;
  ASSERT_TRUE(apply_properties(props_of({{"net.retry.max_attempts", "4"},
                                         {"net.retry.timeout_us", "2500"},
                                         {"net.retry.backoff_us", "300"},
                                         {"net.retry.backoff_max_us", "10000"},
                                         {"net.retry.multiplier", "3.0"},
                                         {"net.retry.non_idempotent", "true"}}),
                               config)
                  .is_ok());
  const net::RetryPolicy& policy = config.retry;
  EXPECT_EQ(policy.max_attempts, 4u);
  EXPECT_EQ(policy.timeout_ns, 2500 * us);
  EXPECT_EQ(policy.backoff_base_ns, 300 * us);
  EXPECT_EQ(policy.backoff_max_ns, 10 * ms);
  EXPECT_DOUBLE_EQ(policy.backoff_multiplier, 3.0);
  EXPECT_TRUE(policy.retry_non_idempotent);
  // Untouched knobs keep their defaults.
  EXPECT_EQ(policy.jitter_seed, net::RetryPolicy{}.jitter_seed);
  // Zero attempts means one, as it always has.
  ASSERT_TRUE(apply_properties(props_of({{"net.retry.max_attempts", "0"},
                                         {"net.retry.jitter_seed", "7"}}),
                               config)
                  .is_ok());
  EXPECT_EQ(policy.max_attempts, 1u);
  EXPECT_EQ(policy.jitter_seed, 7u);
}

// A bench sets per-section defaults, then overlays the command line: keys
// that are absent must not disturb them.
TEST(ConfigTableTest, OverlaysOnlyThePresentKeys) {
  ClusterConfig config;
  config.retry.max_attempts = 12;
  config.retry.timeout_ns = 1500;  // not a whole number of microseconds
  config.faults.enabled = true;
  config.faults.crash_first_ns = 4 * ms;
  ASSERT_TRUE(apply_properties(props_of({{"net.retry.backoff_us", "300"},
                                         {"faults.seed", "7"}}),
                               config)
                  .is_ok());
  EXPECT_EQ(config.retry.max_attempts, 12u);
  EXPECT_EQ(config.retry.timeout_ns, 1500u);
  EXPECT_EQ(config.retry.backoff_base_ns, 300 * us);
  EXPECT_TRUE(config.faults.enabled);
  EXPECT_EQ(config.faults.crash_first_ns, 4 * ms);
  EXPECT_EQ(config.faults.seed, 7u);
}

TEST(ConfigTableTest, ChoicesMapToEnumerators) {
  const std::pair<const char*, bb::Scheme> schemes[] = {
      {"async", bb::Scheme::kAsync},
      {"sync", bb::Scheme::kSync},
      {"local", bb::Scheme::kLocal}};
  for (const auto& [name, scheme] : schemes) {
    ClusterConfig config;
    ASSERT_TRUE(
        apply_properties(props_of({{"bb.scheme", name}}), config).is_ok());
    EXPECT_EQ(config.scheme, scheme) << name;
  }
  const std::pair<const char*, FsKind> kinds[] = {
      {"hdfs", FsKind::kHdfs},
      {"lustre", FsKind::kLustre},
      {"bb", FsKind::kBurstBuffer}};
  for (const auto& [name, kind] : kinds) {
    ClusterConfig config;
    RunnerOptions options;
    ASSERT_TRUE(apply_properties(props_of({{"fs", name}}), config,
                                 examples::kRunnerKeys, options)
                    .is_ok());
    EXPECT_EQ(options.fs, kind) << name;
  }
}

// Each of these once ran the default experiment (or hung) without a word.
TEST(ConfigTableTest, RejectsBadValuesNamingTheKey) {
  const Entries bad = {
      {"bb.scheme", "synk"},
      {"fs", "hfds"},
      {"kv.repl.ack", "al"},
      {"kv.memory", "512x"},
      {"kv.memory", "17179869184g"},  // 2^64 bytes: wrapped to 0
      {"faults.crash.first", "6O0ms"},
      {"cluster.nodes", "4294967296"},  // does not fit the 32-bit field
      {"net.retry.timeout_us", "18446744073709551615"},  // overflows in ns
      {"bb.flowctl.high", "1.5"},
      {"faults.rpc.drop_prob", "-0.1"},
      {"net.retry.multiplier", "nan"},
      {"faults.limp.factor", "8x"},
      {"faults.limp.factor", "1000000.5"},  // past what a device can price
      {"faults.limp.factor", "1e30"},       // once wrote faster than no fault
      {"bb.md.journal", "on"},
      {"files", "many"},
      {"stats.interval", "fast"},
      {"trace.out", ""},
  };
  for (const auto& [key, value] : bad) {
    const Status status = apply_runner(props_of({{key, value}}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << key << "=" << value;
    EXPECT_NE(status.message().find(key), std::string::npos)
        << status.to_string();
  }
}

TEST(ConfigTableTest, RejectsUnknownKeys) {
  for (const char* key : {"kv.memroy", "bb.flowctl.capacity", "smoke",
                          "sort.records", "flowctl.low"}) {
    const Status status = apply_runner(props_of({{key, "1"}}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(status.message().find(key), std::string::npos)
        << status.to_string();
  }
}

// slo.* / flightrec.* keys embed metric names; the health monitor's parser
// owns them, so the table passes them through and that parser rejects typos.
TEST(ConfigTableTest, LeavesSloAndFlightrecToTheHealthParser) {
  const Properties props = props_of({{"slo.kv_live_min", "4"},
                                     {"slo.p99_max.kv.put", "250us"},
                                     {"flightrec.bytes", "1k"}});
  EXPECT_TRUE(apply_runner(props).is_ok());
  EXPECT_TRUE(obs::HealthParams::from_properties(props).is_ok());
  const Properties typo = props_of({{"slo.kv_live_mni", "4"}});
  EXPECT_TRUE(apply_runner(typo).is_ok());
  EXPECT_FALSE(obs::HealthParams::from_properties(typo).is_ok());
}

// ---- examples/example.conf in lockstep with the tables ---------------------

// Every setting example.conf shows, live or commented out ("# key = value"),
// with its example value. Prose comments do not parse as a key=value line
// whose key is a dotted lowercase name, and are skipped.
Entries example_settings() {
  std::string root = __FILE__;
  root.erase(root.rfind("/tests/"));
  std::ifstream in(root + "/examples/example.conf");
  EXPECT_TRUE(in.good()) << "cannot open examples/example.conf";
  Entries settings;
  for (std::string line; std::getline(in, line);) {
    std::string_view text = trim(line);
    if (text.starts_with('#')) text.remove_prefix(1);
    const auto parsed = Properties::parse(text);
    if (!parsed.is_ok()) continue;
    for (const auto& [key, value] : parsed.value().entries()) {
      if (key.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_.") ==
          std::string::npos) {
        settings.emplace_back(key, value);
      }
    }
  }
  return settings;
}

TEST(ExampleConfTest, DocumentsEveryTableKey) {
  std::set<std::string> documented;
  for (const auto& [key, value] : example_settings()) documented.insert(key);
  for (const auto& key : cluster_keys()) {
    EXPECT_TRUE(documented.contains(std::string(key.name))) << key.name;
  }
  for (const auto& key : examples::kRunnerKeys) {
    EXPECT_TRUE(documented.contains(std::string(key.name))) << key.name;
  }
}

TEST(ExampleConfTest, EveryExampleValueParses) {
  const Entries settings = example_settings();
  EXPECT_GT(settings.size(), cluster_keys().size());
  for (const auto& [key, value] : settings) {
    const Properties props = props_of({{key, value}});
    const Status status = apply_runner(props);
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    const auto health = obs::HealthParams::from_properties(props);
    EXPECT_TRUE(health.is_ok()) << health.status().to_string();
  }
}

}  // namespace
}  // namespace hpcbb::cluster
