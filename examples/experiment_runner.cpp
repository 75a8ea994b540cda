// Config-driven experiment runner: describe a cluster and a DFSIO workload
// in a properties file (or key=value arguments), run it, and optionally
// dump a Chrome-trace of the burst buffer's flush pipeline.
//
//   ./experiment_runner example.conf
//   ./experiment_runner fs=bb bb.scheme=local files=8 file.size=64m
//   ./experiment_runner fs=lustre trace.out=/tmp/flush_trace.json
//   ./experiment_runner fs=bb metrics.out=r.json timeline.out=t.csv
//       stats.interval=100ms  (keys continue the same command line)
//
// Keys: fs={hdfs,lustre,bb}, bb.scheme={async,sync,local}, files,
// file.size, cluster.nodes, kv.servers, kv.memory, block.size,
// bb.promote={0,1}, trace.out=<path>, metrics.out=<path> (JSON report,
// schema hpcbb.report.v3, including per-op latency attribution and, with
// slo.* rules configured, the online health monitor's "health" section),
// timeline.out=<path> (CSV time series), stats.interval=<duration>
// (sampling period, e.g. 100ms; default 100ms), attr.topk=<n> (slowest ops
// dumped with full span chains in the report; default 5).
// Resilience (DESIGN.md §10, all off by default): net.retry.* (RPC retry
// policy), kv.failover={0,1}, bb.heartbeat=<duration> (failure detector,
// 0 = off), bb.suspect_after / bb.dead_after, and faults.* (deterministic
// fault injection) — see examples/example.conf for the full key list.
// Integrity (DESIGN.md §13): kv.scrub.interval=<duration> (background
// scrubber, 0 = off), kv.scrub.pace=<duration>, and the corruption schedule
// faults.corrupt.first / period (durations) / count.
// Metadata durability (DESIGN.md §14): bb.md.journal={0,1},
// bb.md.checkpoint_interval=<duration>, bb.md.journal_max_bytes, plus the
// master crash schedule faults.master.first / period / downtime / count.
// Health monitoring (DESIGN.md §15): slo.* rules (burn-rate alert engine
// on the sampler tick), flightrec.bytes (flight-recorder budget),
// slo.incident_dir (where hpcbb.incident.v1 bundles land on page). No
// slo.* keys = no monitor, and timing bit-identical to a build without it.
// A config file that cannot be read or parsed, a malformed key=value
// argument, and malformed resilience keys exit with status 2 instead of
// silently defaulting.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <memory>

#include "cluster/cluster.h"
#include "common/properties.h"
#include "common/strings.h"
#include "common/units.h"
#include "mapred/workloads.h"
#include "obs/attribution.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace {

using namespace hpcbb;          // NOLINT
using cluster::Cluster;
using cluster::FsKind;
using sim::Task;

// Each argument is a key=value pair or a config file path. Running the
// defaults after a typo would report results for an experiment nobody asked
// for, so any argument that does not parse is an error.
Result<Properties> parse_args(int argc, char** argv) {
  Properties props;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string text = arg;
    if (arg.find('=') == std::string::npos) {  // a config file path
      std::ifstream in(arg);
      if (!in) {
        return error(StatusCode::kNotFound, "cannot open config file " + arg);
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    auto parsed = Properties::parse(text);
    if (!parsed.is_ok()) {
      return error(StatusCode::kInvalidArgument,
                   arg + ": " + parsed.status().message());
    }
    for (const auto& [k, v] : parsed.value().entries()) props.set(k, v);
  }
  return props;
}

}  // namespace

int main(int argc, char** argv) {
  const Result<Properties> args = parse_args(argc, argv);
  if (!args.is_ok()) {
    std::fprintf(stderr, "bad config: %s\n", args.status().to_string().c_str());
    return 2;
  }
  const Properties& props = args.value();

  cluster::ClusterConfig config;
  config.compute_nodes =
      static_cast<std::uint32_t>(props.get_u64_or("cluster.nodes", 8));
  config.kv_servers =
      static_cast<std::uint32_t>(props.get_u64_or("kv.servers", 4));
  config.kv_memory_per_server = props.get_u64_or("kv.memory", 512 * MiB);
  config.block_size = props.get_u64_or("block.size", 32 * MiB);
  config.bb_promote_on_read = props.get_bool_or("bb.promote", false);
  // bb.flowctl.low/high/critical/pace_us — watermark + pacing knobs for the
  // flow-control subsystem (capacity is derived from the KV fleet size).
  config.bb_flowctl =
      flowctl::FlowControlParams::from_properties(props, config.bb_flowctl);
  // Resilience: RPC retry policy, KV ring failover, the master's heartbeat
  // failure detector, and the seed-driven fault injector. Everything
  // defaults off, keeping unconfigured runs identical to the seed.
  config.retry = net::RetryPolicy::from_properties(props, config.retry);
  // kv.failover, kv.repl.factor (replica count), kv.repl.ack (primary|all).
  config.kv_client.apply_properties(props);
  config.bb_heartbeat_interval_ns =
      props.get_duration_ns_or("bb.heartbeat", config.bb_heartbeat_interval_ns);
  config.bb_suspect_after = static_cast<std::uint32_t>(
      props.get_u64_or("bb.suspect_after", config.bb_suspect_after));
  config.bb_dead_after = static_cast<std::uint32_t>(
      props.get_u64_or("bb.dead_after", config.bb_dead_after));
  config.faults = faults::InjectorParams::from_properties(props, config.faults);
  // Resilience/integrity key validation. A malformed duration or count in a
  // retry policy, heartbeat, journal, or fault schedule is a configuration
  // error, not a silent fallback — a chaos run that quietly dropped its
  // schedule would report a clean resilience section and prove nothing.
  for (const char* key :
       {"kv.scrub.interval", "kv.scrub.pace", "faults.corrupt.first",
        "faults.corrupt.period", "bb.heartbeat", "bb.md.checkpoint_interval",
        "faults.master.first", "faults.master.period",
        "faults.master.downtime"}) {
    if (!props.contains(key)) continue;
    const auto parsed = props.get_duration_ns(key);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "bad config: %s\n",
                   parsed.status().to_string().c_str());
      return 2;
    }
  }
  for (const char* key :
       {"faults.corrupt.count", "net.retry.max_attempts",
        "net.retry.timeout_us", "net.retry.backoff_us",
        "net.retry.backoff_max_us", "bb.suspect_after", "bb.dead_after",
        "bb.md.journal_max_bytes", "faults.master.count"}) {
    if (!props.contains(key)) continue;
    const auto parsed = props.get_u64(key);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "bad config: %s\n",
                   parsed.status().to_string().c_str());
      return 2;
    }
  }
  for (const char* key : {"bb.md.journal", "net.retry.non_idempotent"}) {
    const auto value = props.get(key);
    if (!value) continue;
    if (*value != "true" && *value != "1" && *value != "yes" &&
        *value != "false" && *value != "0" && *value != "no") {
      std::fprintf(stderr,
                   "bad config: key %s: not a boolean (want 0/1): %s\n",
                   key, value->c_str());
      return 2;
    }
  }
  // SLO/flight-recorder keys ride the same reject-don't-default contract:
  // from_properties validates the whole slo.* / flightrec.* namespace.
  auto health_params = obs::HealthParams::from_properties(props);
  if (!health_params.is_ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 health_params.status().to_string().c_str());
    return 2;
  }
  config.bb_scrub.interval_ns =
      props.get_duration_ns_or("kv.scrub.interval", 0);
  config.bb_scrub.chunk_pace_ns = props.get_duration_ns_or("kv.scrub.pace", 0);
  // Metadata durability: bb.md.journal={0,1}, bb.md.checkpoint_interval
  // (duration), bb.md.journal_max_bytes (checkpoint when the journal grows
  // past this). Off by default; faults.master.* schedules master crashes.
  config.bb_md = bb::MdParams::from_properties(props, config.bb_md);
  const std::string scheme = props.get_or("bb.scheme", "async");
  config.scheme = scheme == "sync"    ? bb::Scheme::kSync
                  : scheme == "local" ? bb::Scheme::kLocal
                                      : bb::Scheme::kAsync;

  const std::string fs_name = props.get_or("fs", "bb");
  const FsKind kind = fs_name == "hdfs"     ? FsKind::kHdfs
                      : fs_name == "lustre" ? FsKind::kLustre
                                            : FsKind::kBurstBuffer;

  mapred::DfsioParams workload;
  workload.files = static_cast<std::uint32_t>(props.get_u64_or("files", 8));
  workload.file_size = props.get_u64_or("file.size", 64 * MiB);

  Cluster cluster(config);
  sim::TraceRecorder trace(cluster.sim());
  cluster.bb_master().set_trace(&trace);
  // Simulation-wide trace hook: every instrumented layer (hdfs, kv, lustre,
  // bb, mapred) emits causally-linked spans into the same recorder.
  cluster.sim().set_trace(&trace);
  // Latency attribution: consume op-tagged spans as they close and build
  // per-op critical-path breakdowns for the report's "attribution" section.
  obs::SpanAccountant attribution(
      static_cast<std::size_t>(props.get_u64_or("attr.topk", 5)));
  // Health monitor + flight recorder only when slo.* rules are configured:
  // the monitor rides the sampler tick and the recorder rides the span
  // sink, so an unconfigured run schedules zero extra events.
  std::unique_ptr<obs::FlightRecorder> flightrec;
  std::unique_ptr<obs::HealthMonitor> health;
  if (!health_params.value().rules.empty()) {
    flightrec = std::make_unique<obs::FlightRecorder>(
        cluster.sim(), health_params.value().flightrec_bytes);
    health = std::make_unique<obs::HealthMonitor>(
        cluster.sim(), std::move(health_params).value());
    health->set_flight_recorder(flightrec.get());
    health->set_accountant(&attribution);
  }
  trace.set_span_sink([&attribution, rec = flightrec.get()](
                          const sim::TraceSpan& s) {
    attribution.on_span_close(s);
    if (rec != nullptr) rec->on_span_close(s);
  });

  // Time-series sampler: snapshots the hot counters/gauges every
  // stats.interval of simulated time.
  obs::TimeSeriesSampler sampler(
      cluster.sim(),
      props.get_duration_ns_or("stats.interval", 100 * duration::ms));
  for (const char* counter :
       {"net.tx_bytes", "net.rpc.calls", "kv.hits", "kv.misses",
        "kv.put_bytes", "kv.evictions", "lustre.write_bytes",
        "lustre.read_bytes", "hdfs.dn.write_bytes", "flowctl.stalls",
        "net.retry.attempts", "kv.failover.set",
        "kv.repl.repair_bytes", "kv.repl.anti_entropy_bytes",
        "kv.integrity.detected", "kv.integrity.repaired",
        "kv.scrub.chunks", "bb.quarantined_blocks"}) {
    sampler.watch_counter(counter);
  }
  for (const char* gauge :
       {"kv.bytes", "bb.dirty_bytes", "bb.clean_bytes",
        "bb.flush_queue_depth", "lustre.queue_depth",
        "kv.repl.under_replicated"}) {
    sampler.watch_gauge(gauge);
  }
  if (health != nullptr) health->attach(sampler);

  std::printf("experiment: fs=%s scheme=%s nodes=%u kv=%u x %s, "
              "workload %u x %s\n",
              std::string(to_string(kind)).c_str(),
              std::string(to_string(config.scheme)).c_str(),
              config.compute_nodes, config.kv_servers,
              format_bytes(config.kv_memory_per_server).c_str(),
              workload.files, format_bytes(workload.file_size).c_str());

  struct Results {
    mapred::DfsioResult write, read;
    sim::SimTime flush_drain = 0;
  } results;
  sampler.start();
  cluster.sim().spawn([](Cluster& c, FsKind k, mapred::DfsioParams p,
                         Results& out,
                         obs::TimeSeriesSampler& sam) -> Task<void> {
    auto w = co_await mapred::dfsio_write(c.filesystem(k), c.hub_for(k),
                                          c.compute_nodes(), p);
    if (!w.is_ok()) {
      std::printf("write failed: %s\n", w.status().to_string().c_str());
      sam.stop();
      c.bb_master().stop_heartbeat();
      co_return;
    }
    out.write = w.value();
    const sim::SimTime t0 = c.sim().now();
    if (k == FsKind::kBurstBuffer) co_await c.bb_master().wait_all_flushed();
    out.flush_drain = c.sim().now() - t0;
    auto r = co_await mapred::dfsio_read(c.filesystem(k), c.hub_for(k),
                                         c.compute_nodes(), p);
    if (!r.is_ok()) {
      std::printf("read failed: %s\n", r.status().to_string().c_str());
      sam.stop();
      c.bb_master().stop_heartbeat();
      co_return;
    }
    out.read = r.value();
    // Workload done: final sample at quiescence; the sampler's pending tick
    // exits, the heartbeat prober stops, and the event queue can drain.
    sam.stop();
    c.bb_master().stop_heartbeat();
  }(cluster, kind, workload, results, sampler));
  cluster.sim().run();

  std::printf("write: %7.0f MB/s aggregate (%.0f MB/s mean per task)\n",
              results.write.aggregate_mbps, results.write.mean_task_mbps);
  std::printf("flush drain after last ack: %s\n",
              format_duration_ns(results.flush_drain).c_str());
  std::printf("read:  %7.0f MB/s aggregate (%.0f MB/s mean per task)\n",
              results.read.aggregate_mbps, results.read.mean_task_mbps);
  if (kind == FsKind::kBurstBuffer &&
      cluster.bb_master().flow_control().enabled()) {
    const auto& fc = cluster.bb_master().flow_control();
    auto& metrics = cluster.sim().metrics();
    std::printf(
        "flowctl: peak dirty %s (high watermark %s), %llu stalls "
        "(p99 %s), evicted %s, urgent flushes %llu\n",
        format_bytes(fc.peak_dirty_bytes()).c_str(),
        format_bytes(fc.high_bytes()).c_str(),
        static_cast<unsigned long long>(
            metrics.counter("flowctl.stalls").get()),
        format_duration_ns(
            metrics.histogram_quantile("flowctl.stall_ns", 0.99).value_or(0))
            .c_str(),
        format_bytes(metrics.counter("flowctl.evicted_bytes").get()).c_str(),
        static_cast<unsigned long long>(
            metrics.counter("flowctl.urgent_flushes").get()));
  }
  std::printf("simulated %s in %llu events\n",
              format_duration_ns(cluster.sim().now()).c_str(),
              static_cast<unsigned long long>(
                  cluster.sim().events_processed()));
  if (attribution.op_count() > 0) {
    const auto top = attribution.slowest(1);
    std::printf("attribution: %zu ops; slowest op %llu: %s end-to-end, "
                "bottleneck %s\n",
                attribution.op_count(),
                static_cast<unsigned long long>(top.front().op_id),
                format_duration_ns(top.front().e2e_ns()).c_str(),
                top.front().bottleneck.c_str());
  }
  if (health != nullptr) {
    std::printf("health: %zu rules, %llu warns, %llu pages, %llu resolves, "
                "%zu incident bundles (flightrec dropped %llu)\n",
                health->rule_count(),
                static_cast<unsigned long long>(health->warn_count()),
                static_cast<unsigned long long>(health->page_count()),
                static_cast<unsigned long long>(health->resolve_count()),
                health->incidents().size(),
                static_cast<unsigned long long>(flightrec->dropped_total()));
    for (const auto& event : health->transitions()) {
      std::printf("  alert %-8s %s -> %s at %s\n", event.rule.c_str(),
                  std::string(obs::to_string(event.from)).c_str(),
                  std::string(obs::to_string(event.to)).c_str(),
                  format_duration_ns(event.t_ns).c_str());
    }
    for (const auto& incident : health->incidents()) {
      if (!incident.file.empty()) {
        std::printf("  incident bundle written to %s\n",
                    incident.file.c_str());
      }
    }
  }

  if (const auto out_path = props.get("trace.out")) {
    std::ofstream out(*out_path);
    out << trace.to_chrome_json();
    std::printf("trace (%zu spans) written to %s — open in "
                "chrome://tracing or Perfetto\n",
                trace.spans().size(), out_path->c_str());
    std::printf("%s", trace.summary().c_str());
  }
  if (const auto out_path = props.get("metrics.out")) {
    const std::string report =
        obs::report_json(cluster.sim(), &sampler, &attribution, health.get());
    if (obs::write_text_file(*out_path, report)) {
      std::printf("metrics report (%s) written to %s\n", obs::kReportSchema,
                  out_path->c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics report: %s\n",
                   out_path->c_str());
      return 1;
    }
  }
  if (const auto out_path = props.get("timeline.out")) {
    if (obs::write_text_file(*out_path, sampler.to_csv())) {
      std::printf("timeline (%zu samples x %zu series) written to %s\n",
                  sampler.timeline().size(), sampler.series_names().size(),
                  out_path->c_str());
    } else {
      std::fprintf(stderr, "cannot write timeline: %s\n", out_path->c_str());
      return 1;
    }
  }
  return 0;
}
