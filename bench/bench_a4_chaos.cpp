// A4 — chaos: DFSIO and Sort under rolling KV-server crashes/restarts plus
// transient RPC drop/delay faults, per burst-buffer scheme, with the full
// resilience stack enabled (RPC retry, heartbeat failure detection, ring
// failover, degraded-mode write-through).
//
// Reported per scheme (and as hpcbb.bench.v1 JSON):
//   * data loss: blocks lost / recovered, files fully readable after chaos
//     (the FT schemes must report zero loss and every file readable);
//   * degraded-vs-healthy throughput: the same workload on a healthy
//     cluster with identical resilience settings is the baseline;
//   * recovery time: total time the master spent in degraded mode
//     (suspicion to all-peers-live), from bb.degraded_window_ns;
//   * resilience counters: retry attempts/recoveries, ring failovers,
//     server restarts, injected faults.
//
// Accepts key=value overrides (e.g. smoke=1 faults.seed=7 files=4): the
// keys in kChaosKeys and the cluster keys of examples/example.conf, which
// override each section's defaults (a section's swept R still wins). The
// whole chaos schedule is deterministic in faults.seed.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/config.h"
#include "faults/injector.h"
#include "obs/attribution.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/sampler.h"
#include "sim/trace.h"

namespace {

using namespace hpcbb;         // NOLINT
using namespace hpcbb::bench;  // NOLINT
using sim::SimTime;
using sim::Task;
using enum ValueType;

struct ChaosKnobs {
  bool smoke = false;
  mapred::DfsioParams dfsio{.files = 8, .file_size = 64 * MiB};
  std::uint64_t records_per_file = 80000;  // 8 MiB of sort input per file
};

constexpr ConfigKey<ChaosKnobs> kChaosKeys[] = {
    {"smoke", kBool, field<&ChaosKnobs::smoke>},
    {"files", kSize, field<&ChaosKnobs::dfsio, &mapred::DfsioParams::files>},
    {"file.size", kSize,
     field<&ChaosKnobs::dfsio, &mapred::DfsioParams::file_size>},
    {"sort.records", kSize, field<&ChaosKnobs::records_per_file>},
};

// Checks the whole command line once; the sections overlay it unchecked.
Result<ChaosKnobs> knobs_from(const Properties& props) {
  if (props.contains("bb.scheme")) {
    return error(StatusCode::kInvalidArgument,
                 "key bb.scheme: A4 runs every scheme");
  }
  ChaosKnobs k;
  ClusterConfig checked;
  const Status st = cluster::apply_properties(props, checked, kChaosKeys, k);
  if (!st.is_ok()) return st;
  if (k.smoke) {  // smaller defaults; explicit keys still win
    k.dfsio.files = 2;
    k.dfsio.file_size = 8 * MiB;
    k.records_per_file = 10000;
    (void)apply_keys(props, kChaosKeys, k);
  }
  return k;
}

// A section's config: its defaults with the command line's keys on top.
ClusterConfig with_args(ClusterConfig config, const Properties& props) {
  (void)cluster::apply_properties(props, config);  // checked in knobs_from
  return config;
}

// Chaos and healthy runs share identical resilience settings; only the
// injector differs, so the throughput delta is attributable to the faults.
ClusterConfig base_config(bb::Scheme scheme, const ChaosKnobs& k) {
  ClusterConfig config = default_config(scheme);
  config.retry.max_attempts = 4;
  // The full-geometry write burst (8 x 64 MiB) queues individual RPCs for
  // longer than the smoke run's aggressive deadline — a 20 ms per-attempt
  // cutoff makes even the healthy baseline time out. Crash downtime is
  // 200 ms, so the longer deadline still detects dead servers in time.
  config.retry.timeout_ns = k.smoke ? 20 * duration::ms : 200 * duration::ms;
  config.kv_client.failover = true;
  config.bb_heartbeat_interval_ns = 10 * duration::ms;
  return config;
}

// Rolling KV crashes plus transient RPC drops and delay spikes.
ClusterConfig chaos_config(bb::Scheme scheme, const Properties& props,
                           const ChaosKnobs& k) {
  ClusterConfig config = base_config(scheme, k);
  faults::InjectorParams& faults = config.faults;
  faults.enabled = true;
  faults.rpc_drop_prob = 0.002;
  faults.rpc_delay_prob = 0.01;
  faults.rpc_delay_ns = 1 * duration::ms;
  faults.crash_first_ns = k.smoke ? 4 * duration::ms : 60 * duration::ms;
  faults.crash_period_ns = k.smoke ? 0 : 500 * duration::ms;
  faults.crash_downtime_ns =
      k.smoke ? 50 * duration::ms : 200 * duration::ms;
  faults.crash_count = k.smoke ? 1 : 2;
  return with_args(config, props);
}

// The fault-free twin of a run: the same config with no injector.
ClusterConfig without_faults(ClusterConfig config) {
  config.faults = faults::InjectorParams{};
  return config;
}

// Corruption-storm configuration: crash/RPC faults off so every anomaly is
// attributable to corruption, the scrubber on. faults.corrupt.* and
// kv.scrub.* properties override the storm defaults.
ClusterConfig integrity_config(const Properties& props, const ChaosKnobs& k,
                               std::uint32_t repl_factor) {
  ClusterConfig config = base_config(bb::Scheme::kAsync, k);
  faults::InjectorParams& storm = config.faults;
  storm.enabled = true;
  storm.corrupt_first_ns = k.smoke ? 4 * duration::ms : 30 * duration::ms;
  storm.corrupt_period_ns = k.smoke ? 2 * duration::ms : 15 * duration::ms;
  storm.corrupt_count = k.smoke ? 6 : 40;
  config.bb_scrub.interval_ns = k.smoke ? 10 * duration::ms : 50 * duration::ms;
  config = with_args(config, props);
  config.kv_client.replication_factor = repl_factor;
  return config;
}

// Mid-DFSIO master crash with the metadata journal on. Crash/RPC faults on
// the data plane stay off so everything in the section is attributable to
// the control-plane outage; faults.master.* properties override the
// schedule. Deterministic in faults.seed like the rest of the bench.
ClusterConfig master_crash_config(bb::Scheme scheme, const Properties& props,
                                  const ChaosKnobs& k,
                                  std::uint32_t repl_factor) {
  ClusterConfig config = base_config(scheme, k);
  config.bb_md.journal = true;
  // Riding out the outage needs backoff that spans the downtime window:
  // retries against the downed master node fail fast at the fabric, so the
  // attempt budget, not the per-attempt deadline, is what must cover it.
  config.retry.max_attempts = 12;
  config.retry.backoff_base_ns = 2 * duration::ms;
  config.retry.backoff_max_ns = 20 * duration::ms;
  faults::InjectorParams& faults = config.faults;
  faults.enabled = true;
  faults.master_first_ns = k.smoke ? 4 * duration::ms : 60 * duration::ms;
  faults.master_downtime_ns =
      k.smoke ? 10 * duration::ms : 50 * duration::ms;
  faults.master_count = 1;
  config = with_args(config, props);
  config.kv_client.replication_factor = repl_factor;
  return config;
}

// One limpware episode on the first device target (kv0's journal SSD, which
// the put path co_awaits), spanning the write burst. Episodes are serialized
// by the injector, so one long episode beats many short ones here.
ClusterConfig limp_config(const Properties& props, const ChaosKnobs& k) {
  ClusterConfig config = base_config(bb::Scheme::kAsync, k);
  faults::InjectorParams& limp = config.faults;
  limp.enabled = true;
  // The episode must be in force before the burst's first puts reach the
  // journal: Device::io prices each transfer when it is *enqueued*, so a
  // slowdown applied mid-queue would not reprice writes already in line.
  limp.limp_first_ns = 100 * duration::us;
  limp.limp_duration_ns = k.smoke ? 60 * duration::ms : 600 * duration::ms;
  limp.limp_factor = 8.0;
  limp.limp_count = 1;
  return with_args(config, props);
}

struct ChaosOutcome : Outcome {
  std::uint64_t quarantined = 0;  // read once the run has quiesced
  double healthy_write_mbps = 0;  // of the fault-free twin, where one ran
  double healthy_read_mbps = 0;
};

using ChaosTask = Task<void> (*)(Cluster&, const ChaosKnobs&, ChaosOutcome&);

// The DFSIO write burst (the crash schedule fires mid-burst), the flush of
// what survived it, and a verified read-back of every file from rotated
// nodes. After a master crash the flush waits for the recovery.
Task<void> write_flush_read_back(Cluster& c, const ChaosKnobs& k,
                                 ChaosOutcome& out, bool master_crashes) {
  co_await dfsio_write(c, FsKind::kBurstBuffer, k.dfsio, out);
  if (master_crashes) co_await c.bb_master().wait_recovered();
  co_await c.bb_master().wait_all_flushed();
  out.blocks_lost = c.bb_master().lost_blocks();
  out.blocks_recovered = c.bb_master().recovered_blocks();
  const Readback rotated{.node_shift = 1};
  co_await verified_readback(c, k.dfsio, rotated, out);
}

Task<void> chaos_task(Cluster& c, const ChaosKnobs& k, ChaosOutcome& out) {
  const auto kind = FsKind::kBurstBuffer;
  sim::Simulation& sim = c.sim();
  co_await write_flush_read_back(c, k, out, false);

  // Then Sort with the fault schedule still armed (RPC faults apply to
  // the whole run; later crashes land here in the full schedule).
  const SortParams sort_params{.files = k.dfsio.files,
                               .records_per_file = k.records_per_file,
                               .reducers = 8,
                               .out_dir = "/out/chaos_sort"};
  co_await sort(c, kind, sort_params, out);
  co_await c.bb_master().wait_all_flushed();

  // Let the cluster heal before stopping the prober: the recovery-time
  // measurement needs the last scheduled restart plus a successful probe
  // round, even when the workload finishes inside the downtime window.
  const faults::InjectorParams& f = c.injector().params();
  const SimTime schedule_end =
      f.crash_first_ns +
      (f.crash_count > 0 ? f.crash_count - 1 : 0) * f.crash_period_ns +
      f.crash_downtime_ns;
  if (f.enabled && sim.now() < schedule_end) {
    co_await sim.delay_until(schedule_end);
  }
  const SimTime probe = c.config().bb_heartbeat_interval_ns;
  for (int i = 0; i < 10 && c.bb_master().degraded() && probe > 0; ++i) {
    co_await sim.delay(probe);
  }
  c.bb_master().stop_heartbeat();
}

// Corruption storm: DFSIO write burst, scheduled corruption across the KV
// slabs and OSS devices, the scrubber sweeping in the background, then a
// verified read-back of every byte. Reads that fail are accounted; reads
// that return wrong bytes count as silent corruption (must never happen).
Task<void> integrity_task(Cluster& c, const ChaosKnobs& k, ChaosOutcome& out) {
  sim::Simulation& sim = c.sim();
  co_await dfsio_write(c, FsKind::kBurstBuffer, k.dfsio, out);
  if (!out.write_ok) {
    // A failed burst leaves nothing to corrupt or scrub — say so instead of
    // letting the integrity table read as a vacuous pass.
    std::fprintf(stderr, "warning: integrity DFSIO write failed\n");
  }
  co_await c.bb_master().wait_all_flushed();

  // Let the whole corruption schedule land, then give the scrubber two full
  // passes over the aftermath.
  const faults::InjectorParams& f = c.injector().params();
  const SimTime storm_end =
      f.corrupt_first_ns +
      (f.corrupt_count > 0 ? f.corrupt_count - 1 : 0) * f.corrupt_period_ns;
  if (f.enabled && sim.now() < storm_end) {
    co_await sim.delay_until(storm_end);
  }
  if (const SimTime interval = c.config().bb_scrub.interval_ns;
      interval > 0) {
    co_await sim.delay(2 * interval);
  }

  const Readback every_chunk{.node_shift = 1, .first_failure_ends_file = false};
  co_await verified_readback(c, k.dfsio, every_chunk, out);
  co_await c.bb_master().wait_all_flushed();
  c.bb_master().stop_heartbeat();
}

// Master crash mid-DFSIO: the write burst is in flight when the scheduled
// faults.master.* crash takes the control plane (and its fabric node) down.
// Clients ride the outage on the retry policy; recovery replays the journal
// and reconciles, then the read-back verifies every byte survived.
Task<void> master_crash_task(Cluster& c, const ChaosKnobs& k,
                             ChaosOutcome& out) {
  co_await write_flush_read_back(c, k, out, true);
  c.bb_master().stop_heartbeat();
}

// DFSIO burst + flush drain for the limpware class: no crash/RPC faults, so
// every slow flush is attributable to the degraded devices.
Task<void> limp_task(Cluster& c, const ChaosKnobs& k, ChaosOutcome& out) {
  co_await dfsio_write(c, FsKind::kBurstBuffer, k.dfsio, out);
  co_await c.bb_master().wait_all_flushed();
  c.bb_master().stop_heartbeat();
}

ChaosOutcome run(const ClusterConfig& config, const ChaosKnobs& k,
                 ChaosTask task) {
  return run_case<ChaosOutcome>(
      config, [&](Cluster& c, ChaosOutcome& out) { return task(c, k, out); },
      [](Cluster& c, ChaosOutcome& out) {
        out.quarantined = c.bb_master().quarantined_blocks();
      });
}

// ---- health monitor (DESIGN.md §15) ----
// Every fault class above must also be *observable*: a run with the SLO
// engine armed has to page the one rule mapped to the injected fault class
// and emit a parseable hpcbb.incident.v1 bundle, while the identical healthy
// run fires zero alerts. This is the bench-level proof that the alert table
// in EXPERIMENTS.md actually discriminates fault classes.

// The observability stack the experiment runner wires, built per health run:
// trace recorder -> span sink -> {latency attribution, flight recorder},
// sampler tick -> burn-rate SLO engine. Only health runs construct one, so
// the earlier sections keep their exact event schedules.
struct HealthHarness {
  sim::TraceRecorder trace;
  obs::SpanAccountant attribution;
  obs::FlightRecorder flightrec;
  obs::HealthMonitor monitor;
  obs::TimeSeriesSampler sampler;

  HealthHarness(Cluster& c, obs::HealthParams params, SimTime interval_ns)
      : trace(c.sim()),
        attribution(5),
        flightrec(c.sim(), params.flightrec_bytes),
        monitor(c.sim(), std::move(params)),
        sampler(c.sim(), interval_ns) {
    c.bb_master().set_trace(&trace);
    c.sim().set_trace(&trace);
    trace.set_span_sink([this](const sim::TraceSpan& s) {
      attribution.on_span_close(s);
      flightrec.on_span_close(s);
    });
    monitor.set_flight_recorder(&flightrec);
    monitor.set_accountant(&attribution);
    monitor.attach(sampler);
    sampler.watch_gauge("bb.kv_live");
    sampler.watch_gauge("bb.master_up");
    sampler.watch_gauge("bb.dirty_bytes");
    sampler.watch_counter("kv.integrity.detected");
  }
};

// The workload finishing is what quiesces the sampler (and with it the
// monitor's evaluation clock).
Task<void> with_sampler(Task<void> inner, obs::TimeSeriesSampler& sampler) {
  co_await std::move(inner);
  sampler.stop();
}

// Where incident bundles land: the working directory, or $HPCBB_BENCH_OUT
// beside the JSON results (CI uploads incident-*.json as an artifact).
std::string incident_dir() {
  if (const char* dir = std::getenv("HPCBB_BENCH_OUT")) return dir;
  return ".";
}

struct HealthOutcome {
  std::uint64_t warns = 0;
  std::uint64_t pages = 0;
  std::uint64_t resolves = 0;
  std::uint64_t healthy_alerts = 0;  // transitions in the fault-free twin
  std::size_t incidents = 0;
  bool rule_paged = false;     // the mapped rule reached page state
  bool bundle_ok = false;      // incident parses: schema + flightrec + alerts
  bool bundle_faults = false;  // bundle correlates >= 1 injected fault
  bool bundle_suspects = false;  // >= 1 op_id in flight at a fault instant
  bool expect_suspects = false;  // the class has in-flight ops to name
  std::uint64_t flightrec_dropped = 0;
  double baseline_put_ms = kNone;  // the limpware rule's healthy reference

  [[nodiscard]] bool ok() const {
    return rule_paged && bundle_ok && bundle_faults && healthy_alerts == 0 &&
           (!expect_suspects || bundle_suspects);
  }
};

// One instrumented run: `config` carries the fault schedule (or none, for
// the healthy twin), `slo` the rule set. Fills the monitor-side fields of
// HealthOutcome; healthy_alerts is merged by the caller.
HealthOutcome run_health(const ClusterConfig& config, const Properties& slo,
                         const ChaosKnobs& k, const std::string& rule,
                         ChaosTask task) {
  HealthOutcome out;
  auto params = obs::HealthParams::from_properties(slo);
  if (!params.is_ok()) {
    std::fprintf(stderr, "health rules rejected: %s\n",
                 params.status().to_string().c_str());
    return out;
  }
  // The harness is declared before the cluster and so outlives it: tasks
  // still suspended when the run ends close their spans into its recorder
  // as the cluster's simulation destroys them.
  std::optional<HealthHarness> harness;
  const SimTime interval = k.smoke ? 2 * duration::ms : 10 * duration::ms;
  const auto watched = [&](Cluster& c, ChaosOutcome& o) {
    harness.emplace(c, std::move(params).value(), interval);
    harness->sampler.start();
    return with_sampler(task(c, k, o), harness->sampler);
  };
  // Read while the cluster still stands, as its teardown closes spans.
  const auto read_monitor = [&](Cluster&, ChaosOutcome&) {
    const obs::HealthMonitor& monitor = harness->monitor;
    out.warns = monitor.warn_count();
    out.pages = monitor.page_count();
    out.resolves = monitor.resolve_count();
    out.incidents = monitor.incidents().size();
    out.flightrec_dropped = harness->flightrec.dropped_total();
    for (const obs::AlertEvent& event : monitor.transitions()) {
      if (event.rule == rule && event.to == obs::AlertState::kPage) {
        out.rule_paged = true;
      }
    }
    for (const obs::Incident& incident : monitor.incidents()) {
      if (incident.rule != rule) continue;
      const std::string& json = incident.json;
      out.bundle_ok =
          json.find("\"schema\":\"hpcbb.incident.v1\"") != std::string::npos &&
          json.find("\"flightrec\":{") != std::string::npos &&
          json.find("\"alerts\":[{") != std::string::npos;
      out.bundle_faults = json.find("\"faults\":[{") != std::string::npos;
      out.bundle_suspects =
          json.find("\"suspect_op_ids\":[]") == std::string::npos;
      break;
    }
  };
  run_case<ChaosOutcome>(config, watched, read_monitor);
  return out;
}

double num(std::uint64_t value) { return static_cast<double>(value); }

// A column that reads the run's field `m`.
template <class T, class C>
Stat<ChaosOutcome> of(Column column, T C::*m) {
  return member<ChaosOutcome>(std::move(column), m);
}

// A column that reports the sum of the run's counters `names`.
Stat<ChaosOutcome> counter(Column column,
                           std::vector<std::string> names) {
  return {std::move(column), [names](const ChaosOutcome& o) {
            double sum = 0;
            for (const std::string& name : names) {
              sum += o.metrics.counter(name);
            }
            return sum;
          }};
}

// A column that reports one field of a histogram of the run, in ms.
Stat<ChaosOutcome> histogram_ms(Column column, std::string name,
                                std::uint64_t HistogramSnapshot::*part) {
  return {std::move(column), [name, part](const ChaosOutcome& o) {
            return num(o.metrics.histogram(name).*part) / duration::ms;
          }};
}

double faults_injected(const ChaosOutcome& o) {
  return o.metrics.counter_sum("faults.injected");
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kFlags[] = {"--gate"};  // bench::finish's
  const Result<Properties> args = Properties::from_args(argc, argv, kFlags);
  const Result<ChaosKnobs> parsed =
      args.is_ok() ? knobs_from(args.value())
                   : Result<ChaosKnobs>(args.status());
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }
  const Properties& props = args.value();
  const ChaosKnobs& knobs = parsed.value();
  const faults::InjectorParams shown =
      chaos_config(bb::Scheme::kAsync, props, knobs).faults;

  print_header(
      "A4",
      "chaos: DFSIO + Sort under rolling KV crashes and transient RPC faults",
      "FT schemes lose nothing and stay readable; throughput degrades "
      "bounded; the cluster recovers within the downtime window");
  std::printf("faults: seed=%llu drop=%.4f delay=%.4f crashes=%u "
              "(downtime %.0fms)%s\n",
              static_cast<unsigned long long>(shown.seed),
              shown.rpc_drop_prob, shown.rpc_delay_prob, shown.crash_count,
              static_cast<double>(shown.crash_downtime_ns) / duration::ms,
              knobs.smoke ? "  [smoke]" : "");
  JsonResult result(
      "a4", "chaos: DFSIO + Sort under rolling crashes and RPC faults");
  const std::string of_files = "%.0f/" + std::to_string(knobs.dfsio.files);
  constexpr bb::Scheme kSchemes[] = {bb::Scheme::kAsync, bb::Scheme::kSync,
                                     bb::Scheme::kLocal};

  OutcomeTable<ChaosOutcome> schemes(
      result, "scheme",
      {of({"lost", "blocks-lost"}, &Outcome::blocks_lost),
       of({"recov", "blocks-recovered"}, &Outcome::blocks_recovered),
       of({"readable", "files-readable", of_files}, &Outcome::files_readable),
       {{"wr-deg%", "write-degraded-frac", "", 1, percent_text},
        [](const ChaosOutcome& o) {
          return ratio(o.write_mbps, o.healthy_write_mbps);
        }},
       {{"rd-deg%", "read-degraded-frac", "", 1, percent_text},
        [](const ChaosOutcome& o) {
          return ratio(o.read_mbps, o.healthy_read_mbps);
        }},
       {{"recov-s", "recovery-s", "%.3f"},
        [](const ChaosOutcome& o) {
          return ns_to_sec(o.metrics.histogram("bb.degraded_window_ns").sum);
        }},
       counter({"retries", "retry-attempts"}, {"net.retry.attempts"}),
       counter({"failov", "failovers"}, {"kv.failover.get", "kv.failover.set"}),
       of({"sort-s", "sort-chaos-s", "%.2f"}, &Outcome::job_s),
       of({"sorted", "sort-sorted", "", 1, flag_text}, &Outcome::sorted),
       of({"", "write-healthy-mbps"}, &ChaosOutcome::healthy_write_mbps),
       of({"", "write-chaos-mbps"}, &Outcome::write_mbps),
       of({"", "read-healthy-mbps"}, &ChaosOutcome::healthy_read_mbps),
       of({"", "read-chaos-mbps"}, &Outcome::read_mbps),
       {{"", "degraded-windows"},
        [](const ChaosOutcome& o) {
          return num(o.metrics.histogram("bb.degraded_window_ns").count);
        }},
       counter({"", "retry-recovered"}, {"net.retry.recovered"}),
       counter({"", "kv-restarts"}, {"kv.restarts"}),
       {{"", "faults-injected"}, faults_injected}});
  for (const bb::Scheme scheme : kSchemes) {
    const ClusterConfig config = chaos_config(scheme, props, knobs);
    const ChaosOutcome healthy = run(without_faults(config), knobs, chaos_task);
    ChaosOutcome chaos = run(config, knobs, chaos_task);
    chaos.healthy_write_mbps = healthy.write_mbps;
    chaos.healthy_read_mbps = healthy.read_mbps;
    schemes.row(std::string(to_string(scheme)), chaos);
  }
  std::printf("\n(wr/rd-deg%% = chaos throughput as a fraction of the "
              "healthy run with identical resilience settings)\n");

  // ---- replicated mode: BB-Async at R=1 vs R=2 under the same crash
  // schedule. R=1 documents the durability window (dirty chunks die with
  // their server); R=2 must report zero lost blocks and every file
  // readable, with the repair/anti-entropy traffic accounted.
  using HS = HistogramSnapshot;
  OutcomeTable<ChaosOutcome> replication(
      result, "R",
      {of({"lost", "repl-blocks-lost"}, &Outcome::blocks_lost),
       of({"readable", "repl-files-readable", of_files},
          &Outcome::files_readable),
       counter({"repair-MiB", "repl-repair-bytes", "%.1f", MiB},
               {"kv.repl.repair_bytes"}),
       counter({"chunks", "repl-repair-chunks"}, {"kv.repl.repair_chunks"}),
       counter({"a-e", "repl-anti-entropy-chunks"},
               {"kv.repl.anti_entropy_chunks"}),
       counter({"rd-repl", "repl-replica-reads"}, {"kv.repl.replica_reads"}),
       histogram_ms({"repair-ms", "repl-repair-max-ms", "%.2f"},
                    "kv.repl.repair_ns", &HS::max),
       {{"underrepl", "repl-under-replicated-peak"},
        [](const ChaosOutcome& o) {
          return num(
              o.metrics.gauge("kv.repl.under_replicated").high_watermark);
        }},
       of({"", "repl-write-chaos-mbps"}, &Outcome::write_mbps),
       of({"", "repl-read-chaos-mbps"}, &Outcome::read_mbps),
       counter({"", "repl-repair-failed"}, {"kv.repl.repair_failed"}),
       {{"", "repl-repair-runs"},
        [](const ChaosOutcome& o) {
          return num(o.metrics.histogram("kv.repl.repair_ns").count);
        }},
       histogram_ms({"", "repl-repair-p50-ms"}, "kv.repl.repair_ns",
                    &HS::p50),
       histogram_ms({"", "repl-repair-p99-ms"}, "kv.repl.repair_ns",
                    &HS::p99),
       histogram_ms({"", "repl-anti-entropy-p50-ms"},
                    "kv.repl.anti_entropy_ns", &HS::p50)},
      "replication (bb-async under chaos):");
  for (const std::uint32_t factor : {1u, 2u}) {
    ClusterConfig config = chaos_config(bb::Scheme::kAsync, props, knobs);
    config.kv_client.replication_factor = factor;
    replication.row("R=" + std::to_string(factor),
                    run(config, knobs, chaos_task));
  }
  std::printf("(a-e = anti-entropy chunks restored to rejoined servers; "
              "rd-repl = reads served by a non-primary replica)\n");

  // ---- integrity: BB-Async under a corruption storm (scheduled bit-flips /
  // torn writes / stale reads across the KV slabs and OSS devices) with the
  // background scrubber on, at R=1 vs R=2. Silent corruption must be zero at
  // any R — a read either returns verified bytes or fails loudly. At R=2 the
  // verified-read failover + scrub repair machinery keeps files readable and
  // no corrupt byte reaches Lustre (the flusher re-verifies every block);
  // at R=1 unrepairable dirty blocks are quarantined instead of flushed.
  OutcomeTable<ChaosOutcome> integrity(
      result, "R",
      {counter({"detect", "integ-detected"}, {"kv.integrity.detected"}),
       counter({"repair", "integ-repaired"},
               {"kv.integrity.repaired", "kv.scrub.repaired"}),
       counter({"unrep", "integ-unrepairable"},
               {"kv.integrity.unrepairable", "kv.scrub.unrepairable"}),
       of({"quarant", "integ-quarantined"}, &ChaosOutcome::quarantined),
       of({"silent", "integ-silent-corruptions"},
          &Outcome::silent_corruptions),
       counter({"passes", "integ-scrub-passes"}, {"kv.scrub.passes"}),
       of({"readable", "integ-files-readable", of_files},
          &Outcome::files_readable),
       {{"inject", "integ-faults-injected"}, faults_injected},
       counter({"", "integ-scrub-chunks"}, {"kv.scrub.chunks"}),
       {{"", "integ-readback-ok"},
        [](const ChaosOutcome& o) {
          return o.silent_corruptions == 0 ? 1.0 : 0.0;
        }}},
      "integrity (bb-async corruption storm, scrubber on):");
  for (const std::uint32_t factor : {1u, 2u}) {
    integrity.row("R=" + std::to_string(factor),
                  run(integrity_config(props, knobs, factor), knobs,
                      integrity_task));
  }
  std::printf("(silent = reads returning OK with wrong bytes, the one number "
              "that must be 0 at every R; quarantined blocks fail loudly "
              "with data-loss instead)\n");

  // ---- master crash: mid-DFSIO control-plane outage with the metadata
  // journal on, per scheme x R. Recovery loads the checkpoint, replays the
  // journal tail, and reconciles against the KV chunk inventory while the
  // writers ride the outage on retries. At R=2 the journal keys themselves
  // are replicated, so the zero-metadata-loss invariant must hold: every
  // file recovered, every byte readable, nothing lost.
  const auto zero_loss = [&knobs](const ChaosOutcome& o) {
    return o.blocks_lost == 0 && o.files_readable == knobs.dfsio.files &&
           o.metrics.counter("bb.md.restarts") >= 1 &&
           o.metrics.counter("bb.md.recovery_errors") == 0;
  };
  OutcomeTable<ChaosOutcome> master(
      result, "scheme/R",
      {of({"lost", "master-blocks-lost"}, &Outcome::blocks_lost),
       of({"readable", "master-files-readable", of_files},
          &Outcome::files_readable),
       counter({"recov-f", "master-recovered-files"},
               {"bb.md.recovered_files"}),
       counter({"replayed", "master-replayed-records"},
               {"bb.md.replayed_records"}),
       counter({"rstrt", "master-restarts"}, {"bb.md.restarts"}),
       histogram_ms({"recov-p50", "master-recovery-p50-ms", "%.1f"},
                    "bb.md.recovery_ns", &HS::p50),
       histogram_ms({"recov-max", "master-recovery-max-ms", "%.1f"},
                    "bb.md.recovery_ns", &HS::max),
       counter({"jrnl", "master-journal-records"}, {"bb.md.journal_records"}),
       counter({"ckpt", "master-checkpoints"}, {"bb.md.checkpoints"}),
       {{"zero-loss", "master-zero-md-loss", "", 1, flag_text},
        [zero_loss](const ChaosOutcome& o) {
          return zero_loss(o) ? 1.0 : 0.0;
        }},
       counter({"", "master-recovery-errors"}, {"bb.md.recovery_errors"}),
       of({"", "master-write-mbps"}, &Outcome::write_mbps),
       counter({"", "master-retry-attempts"}, {"net.retry.attempts"})},
      "master crash (mid-DFSIO, journal on):");
  for (const bb::Scheme scheme : kSchemes) {
    for (const std::uint32_t factor : {1u, 2u}) {
      master.row(std::string(to_string(scheme)) + "/R=" +
                     std::to_string(factor),
                 run(master_crash_config(scheme, props, knobs, factor), knobs,
                     master_crash_task));
    }
  }
  std::printf("(recov-p50/max = journal-replay recovery time; zero-loss = "
              "no lost blocks, every file readable, recovery clean — the "
              "R=2 invariant)\n");

  // ---- health monitor: every fault class above re-run with the SLO engine
  // armed. The class's mapped rule must page with a parseable incident
  // bundle that correlates the injected faults, and the fault-free twin of
  // the same run must fire zero alerts (EXPERIMENTS.md alert table).
  // The limpware SLO threshold is relative: 3x the put-latency max of a
  // fault-free run of the same workload, so the rule tracks the geometry
  // instead of hard-coding a simulator constant.
  const std::uint64_t put_max =
      run(without_faults(chaos_config(bb::Scheme::kAsync, props, knobs)),
          knobs, limp_task)
          .metrics.histogram("kv.put")
          .max;
  struct HealthClass {
    const char* name;
    const char* incident_prefix;
    const char* rule;
    std::string threshold;
    ClusterConfig faulted;
    ChaosTask task;
    bool expect_suspects;
  };
  const ClusterConfig kv_crash = chaos_config(bb::Scheme::kAsync, props, knobs);
  const HealthClass classes[] = {
      // KV crash: the failure detector's live-peer gauge dips below the
      // full ring while a server is down.
      {"kv-crash", "incident-kvcrash", "kv_live_min",
       std::to_string(kv_crash.kv_servers), kv_crash, chaos_task, true},
      // Master crash: the control-plane liveness gauge drops to 0 for the
      // whole downtime window.
      {"master-crash", "incident-master", "master_up_min", "1",
       master_crash_config(bb::Scheme::kAsync, props, knobs, 1),
       master_crash_task, true},
      // Corruption storm: any verified-read or scrubber detection at all is
      // a breach (threshold 0 on the cumulative detection counters).
      {"corruption", "incident-corrupt", "integrity_detected_max", "0",
       integrity_config(props, knobs, 1), integrity_task, false},
      // Limpware: put latency through the degraded journal SSD blows past
      // 3x the fault-free maximum of the same workload (generic max_max
      // rule — no built-in needed for a metric named in the key).
      {"limpware", "incident-limp", "max_max.kv.put",
       std::to_string(3 * put_max) + "ns", limp_config(props, knobs),
       limp_task, false},
  };
  using H = HealthOutcome;
  OutcomeTable<H> health(
      result, "class",
      {member<H>({"healthy", "health-healthy-alerts"}, &H::healthy_alerts),
       member<H>({"pages", "health-pages"}, &H::pages),
       member<H>({"resolves", "health-resolves"}, &H::resolves),
       member<H>({"incid", "health-incidents"}, &H::incidents),
       member<H>({"bundle", "health-bundle-ok", "", 1, flag_text},
                 &H::bundle_ok),
       member<H>({"fault", "health-bundle-faults", "", 1, flag_text},
                 &H::bundle_faults),
       {{"suspect", "health-bundle-suspects", "", 1, flag_text},
        [](const H& o) {
          if (o.bundle_suspects) return 1.0;
          return o.expect_suspects ? 0.0 : kNone;
        }},
       member<H>({"", "health-warns"}, &H::warns),
       member<H>({"", "health-rule-paged"}, &H::rule_paged),
       member<H>({"", "health-flightrec-dropped"}, &H::flightrec_dropped),
       member<H>({"", "health-limp-baseline-put-ms"}, &H::baseline_put_ms)},
      "health monitor (SLO burn-rate alerts per fault class; each row ends "
      "with its rule):");
  bool health_ok = true;
  const std::string inc_dir = incident_dir();
  for (const HealthClass& cls : classes) {
    Properties slo;
    slo.set("slo.incident_dir", inc_dir);
    slo.set("slo.incident_prefix", cls.incident_prefix);
    slo.set(std::string("slo.") + cls.rule, cls.threshold);
    HealthOutcome o = run_health(cls.faulted, slo, knobs, cls.rule, cls.task);
    const HealthOutcome twin = run_health(without_faults(cls.faulted), slo,
                                          knobs, cls.rule, cls.task);
    o.healthy_alerts = twin.warns + twin.pages + twin.resolves;
    o.expect_suspects = cls.expect_suspects;
    if (cls.task == limp_task) {
      o.baseline_put_ms = num(put_max) / duration::ms;
    }
    health_ok = health_ok && o.ok();
    health.row(cls.name, o,
               std::string(cls.rule) + (o.ok() ? "" : "   <- FAIL"));
  }
  std::printf("(healthy = alert transitions in the fault-free twin, must be "
              "0; bundle = hpcbb.incident.v1 with flight-recorder rings; "
              "fault/suspect = the bundle correlates injected faults and "
              "in-flight op_ids)\n");
  std::printf("\n%s: every fault class paged its mapped SLO rule with a "
              "parseable incident bundle and zero healthy-run alerts\n",
              health_ok ? "PASS" : "FAIL");

  const int gate_rc = finish(result, argc, argv);
  return health_ok ? gate_rc : 1;
}
