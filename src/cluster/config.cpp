#include "cluster/config.h"

#include "storage/device.h"

namespace hpcbb::cluster {

namespace {

using enum ValueType;
using C = ClusterConfig;
using FC = flowctl::FlowControlParams;
using RP = net::RetryPolicy;
using KC = kv::ClientParams;
using FI = faults::InjectorParams;
using MD = bb::MdParams;
using SP = integrity::ScrubParams;

// Fields of the structs nested in ClusterConfig.
template <auto M> constexpr auto flow = field<&C::bb_flowctl, M>;
template <auto M> constexpr auto retry = field<&C::retry, M>;
template <auto M> constexpr auto client = field<&C::kv_client, M>;
template <auto M> constexpr auto fault = field<&C::faults, M>;
template <auto M> constexpr auto md = field<&C::bb_md, M>;
template <auto M> constexpr auto scrub = field<&C::bb_scrub, M>;

// A limpware factor the device model can price.
constexpr auto limp_factor = [](C& config, const TypedValue& value) {
  return value.real <= storage::Device::kMaxSlowdown &&
         fault<&FI::limp_factor>(config, value);
};

// Choice names, in enumerator order.
constexpr std::string_view kSchemes[] = {"async", "sync", "local"};
constexpr std::string_view kAckModes[] = {"primary", "all"};

// In the order examples/example.conf documents them. The `_us` keys
// predate duration suffixes and stay in microseconds.
constexpr ConfigKey<ClusterConfig> kClusterKeys[] = {
    {"bb.scheme", kChoice, field<&C::scheme>, kSchemes},
    {"bb.promote", kBool, field<&C::bb_promote_on_read>},
    {"cluster.nodes", kSize, field<&C::compute_nodes>},
    {"kv.servers", kSize, field<&C::kv_servers>},
    {"kv.memory", kSize, field<&C::kv_memory_per_server>},
    {"block.size", kSize, field<&C::block_size>},
    {"bb.flowctl.low", kFraction, flow<&FC::low_watermark>},
    {"bb.flowctl.high", kFraction, flow<&FC::high_watermark>},
    {"bb.flowctl.critical", kFraction, flow<&FC::critical_watermark>},
    {"bb.flowctl.pace_us", kMicros, flow<&FC::background_pace_ns>},
    {"net.retry.max_attempts", kSize, retry<&RP::max_attempts>, {}, 1},
    {"net.retry.timeout_us", kMicros, retry<&RP::timeout_ns>},
    {"net.retry.backoff_us", kMicros, retry<&RP::backoff_base_ns>},
    {"net.retry.backoff_max_us", kMicros, retry<&RP::backoff_max_ns>},
    {"net.retry.multiplier", kReal, retry<&RP::backoff_multiplier>},
    {"net.retry.jitter_seed", kSize, retry<&RP::jitter_seed>},
    {"net.retry.non_idempotent", kBool, retry<&RP::retry_non_idempotent>},
    {"kv.failover", kBool, client<&KC::failover>},
    {"bb.heartbeat", kDuration, field<&C::bb_heartbeat_interval_ns>},
    {"bb.suspect_after", kSize, field<&C::bb_suspect_after>},
    {"bb.dead_after", kSize, field<&C::bb_dead_after>},
    {"kv.repl.factor", kSize, client<&KC::replication_factor>, {}, 1},
    {"kv.repl.ack", kChoice, client<&KC::ack>, kAckModes},
    {"faults.enabled", kBool, fault<&FI::enabled>},
    {"faults.seed", kSize, fault<&FI::seed>},
    {"faults.rpc.drop_prob", kFraction, fault<&FI::rpc_drop_prob>},
    {"faults.rpc.delay_prob", kFraction, fault<&FI::rpc_delay_prob>},
    {"faults.rpc.delay", kDuration, fault<&FI::rpc_delay_ns>},
    {"faults.crash.first", kDuration, fault<&FI::crash_first_ns>},
    {"faults.crash.period", kDuration, fault<&FI::crash_period_ns>},
    {"faults.crash.downtime", kDuration, fault<&FI::crash_downtime_ns>},
    {"faults.crash.count", kSize, fault<&FI::crash_count>},
    {"faults.limp.first", kDuration, fault<&FI::limp_first_ns>},
    {"faults.limp.period", kDuration, fault<&FI::limp_period_ns>},
    {"faults.limp.duration", kDuration, fault<&FI::limp_duration_ns>},
    {"faults.limp.factor", kReal, limp_factor},
    {"faults.limp.count", kSize, fault<&FI::limp_count>},
    {"faults.master.first", kDuration, fault<&FI::master_first_ns>},
    {"faults.master.period", kDuration, fault<&FI::master_period_ns>},
    {"faults.master.downtime", kDuration, fault<&FI::master_downtime_ns>},
    {"faults.master.count", kSize, fault<&FI::master_count>},
    {"bb.md.journal", kBool, md<&MD::journal>},
    {"bb.md.checkpoint_interval", kDuration, md<&MD::checkpoint_interval_ns>},
    {"bb.md.journal_max_bytes", kSize, md<&MD::journal_max_bytes>},
    {"faults.corrupt.first", kDuration, fault<&FI::corrupt_first_ns>},
    {"faults.corrupt.period", kDuration, fault<&FI::corrupt_period_ns>},
    {"faults.corrupt.count", kSize, fault<&FI::corrupt_count>},
    {"kv.scrub.interval", kDuration, scrub<&SP::interval_ns>},
    {"kv.scrub.pace", kDuration, scrub<&SP::chunk_pace_ns>},
};

}  // namespace

std::span<const ConfigKey<ClusterConfig>> cluster_keys() {
  return kClusterKeys;
}

Status apply_properties(const Properties& props, ClusterConfig& config) {
  return apply_keys<ClusterConfig>(props, kClusterKeys, config);
}

}  // namespace hpcbb::cluster
