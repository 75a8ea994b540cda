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
// examples/example.conf documents every key. A config file that cannot be
// read or parsed, a malformed key=value argument, an unknown key, and a
// malformed value exit with status 2 instead of silently defaulting.
#include <cstdio>
#include <fstream>
#include <string>

#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "common/properties.h"
#include "common/strings.h"
#include "common/units.h"
#include "mapred/workloads.h"
#include "obs/attribution.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "runner_keys.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace {

using namespace hpcbb;          // NOLINT
using cluster::Cluster;
using cluster::FsKind;
using sim::Task;

// A config the program cannot use stops it with exit status 2: running the
// defaults after a typo would report an experiment nobody asked for.
int bad_config(const Status& status) {
  std::fprintf(stderr, "bad config: %s\n", status.to_string().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Result<Properties> args = Properties::from_args(argc, argv);
  if (!args.is_ok()) return bad_config(args.status());
  const Properties& props = args.value();
  cluster::ClusterConfig config;
  examples::RunnerOptions options;
  const Status applied = cluster::apply_properties(
      props, config, examples::kRunnerKeys, options);
  if (!applied.is_ok()) return bad_config(applied);
  // The table leaves slo.* / flightrec.* to the health monitor's parser.
  auto health_params = obs::HealthParams::from_properties(props);
  if (!health_params.is_ok()) return bad_config(health_params.status());
  const FsKind kind = options.fs;
  const mapred::DfsioParams& workload = options.workload;

  // The recorder and the span consumers its sink feeds are declared before
  // the cluster and so outlive it: tasks still suspended when the run ends
  // close their spans as the cluster's simulation destroys them.
  // Latency attribution: consume op-tagged spans as they close and build
  // per-op critical-path breakdowns for the report's "attribution" section.
  obs::SpanAccountant attribution(options.attr_topk);
  // Health monitor + flight recorder only when slo.* rules are configured:
  // the monitor rides the sampler tick and the recorder rides the span
  // sink, so an unconfigured run schedules zero extra events.
  std::unique_ptr<obs::FlightRecorder> flightrec;
  std::optional<sim::TraceRecorder> recorder;

  Cluster cluster(config);
  sim::TraceRecorder& trace = recorder.emplace(cluster.sim());
  cluster.bb_master().set_trace(&trace);
  // Simulation-wide trace hook: every instrumented layer (hdfs, kv, lustre,
  // bb, mapred) emits causally-linked spans into the same recorder.
  cluster.sim().set_trace(&trace);
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
  obs::TimeSeriesSampler sampler(cluster.sim(), options.stats_interval_ns);
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

  if (const std::string& out_path = options.trace_out; !out_path.empty()) {
    std::ofstream out(out_path);
    out << trace.to_chrome_json();
    std::printf("trace (%zu spans) written to %s — open in "
                "chrome://tracing or Perfetto\n",
                trace.spans().size(), out_path.c_str());
    std::printf("%s", trace.summary().c_str());
  }
  if (const std::string& out_path = options.metrics_out; !out_path.empty()) {
    const std::string report =
        obs::report_json(cluster.sim(), &sampler, &attribution, health.get());
    if (obs::write_text_file(out_path, report)) {
      std::printf("metrics report (%s) written to %s\n", obs::kReportSchema,
                  out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write metrics report: %s\n",
                   out_path.c_str());
      return 1;
    }
  }
  if (const std::string& out_path = options.timeline_out; !out_path.empty()) {
    if (obs::write_text_file(out_path, sampler.to_csv())) {
      std::printf("timeline (%zu samples x %zu series) written to %s\n",
                  sampler.timeline().size(), sampler.series_names().size(),
                  out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write timeline: %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}
