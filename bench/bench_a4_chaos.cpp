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

using namespace hpcbb;          // NOLINT
using hpcbb::bench::Cluster;
using hpcbb::bench::ClusterConfig;
using sim::SimTime;
using sim::Task;
using cluster::field;
using enum ValueType;

struct ChaosKnobs {
  bool smoke = false;
  mapred::DfsioParams dfsio{.files = 8, .file_size = 64 * MiB};
  std::uint64_t records_per_file = 80000;  // 8 MiB of sort input per file
};

constexpr cluster::ConfigKey<ChaosKnobs> kChaosKeys[] = {
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
    (void)cluster::apply_keys(props, kChaosKeys, k);
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
  ClusterConfig config = hpcbb::bench::default_config(scheme);
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

struct Outcome {
  bool write_ok = false;
  double write_mbps = 0;
  double read_mbps = 0;
  std::uint64_t blocks_lost = 0;
  std::uint64_t blocks_recovered = 0;
  std::uint32_t files_readable = 0;
  std::uint32_t files_total = 0;
  double recovery_s = 0;
  std::uint64_t degraded_windows = 0;
  std::uint64_t retry_attempts = 0;
  std::uint64_t retry_recovered = 0;
  std::uint64_t failovers = 0;
  std::uint64_t restarts = 0;
  std::uint64_t faults_injected = 0;
  double sort_s = 0;
  bool sorted = false;
  // Replication subsystem (kv.repl.*); all zero at factor 1.
  std::uint64_t repl_repair_bytes = 0;
  std::uint64_t repl_repair_chunks = 0;
  std::uint64_t repl_repair_failed = 0;
  std::uint64_t repl_anti_entropy_chunks = 0;
  std::uint64_t repl_replica_reads = 0;
  std::uint64_t under_replicated_peak = 0;
  HistogramSnapshot repair_hist{};
  HistogramSnapshot anti_entropy_hist{};
  // Integrity subsystem (kv.integrity.* / kv.scrub.* / quarantine).
  std::uint64_t integ_detected = 0;
  std::uint64_t integ_repaired = 0;
  std::uint64_t integ_unrepairable = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_chunks = 0;
  // Readbacks that returned OK with wrong bytes: must be zero at any R —
  // corruption may fail a read loudly, never pass through silently.
  std::uint64_t silent_corruptions = 0;
  // Master metadata durability (bb.md.*); all zero unless the master
  // crashed with journaling on.
  std::uint64_t md_recovered_files = 0;
  std::uint64_t md_replayed_records = 0;
  std::uint64_t md_restarts = 0;
  std::uint64_t md_journal_records = 0;
  std::uint64_t md_checkpoints = 0;
  std::uint64_t md_recovery_errors = 0;
  HistogramSnapshot md_recovery_hist{};
};

// Reads every DFSIO file back, each from the node after its writer, and
// verifies the pattern. A file counts as readable only if all of it reads
// and verifies; its first failure ends its read.
Task<void> verified_readback(Cluster& c, const ChaosKnobs& k, Outcome& out) {
  const auto kind = cluster::FsKind::kBurstBuffer;
  sim::Simulation& sim = c.sim();
  out.files_total = k.dfsio.files;
  const SimTime read_start = sim.now();
  std::uint64_t read_bytes = 0;
  for (std::uint32_t i = 0; i < k.dfsio.files; ++i) {
    const std::string path = k.dfsio.dir + "/io_file_" + std::to_string(i);
    auto reader = co_await c.filesystem(kind).open(
        path, c.compute_nodes()[(i + 1) % c.compute_nodes().size()]);
    if (!reader.is_ok()) continue;
    bool all_ok = true;
    const std::uint64_t size = reader.value()->size();
    for (std::uint64_t off = 0; off < size && all_ok; off += 4 * MiB) {
      const std::uint64_t len = std::min<std::uint64_t>(4 * MiB, size - off);
      auto data = co_await reader.value()->read(off, len);
      all_ok = data.is_ok() &&
               verify_pattern(fnv1a(path), off, data.value());
      if (all_ok) read_bytes += len;
    }
    if (all_ok) ++out.files_readable;
  }
  const SimTime read_ns = sim.now() - read_start;
  out.read_mbps = read_ns == 0
                      ? 0
                      : static_cast<double>(read_bytes) / MiB /
                            (static_cast<double>(read_ns) / duration::sec);
}

Task<void> chaos_task(Cluster& c, const ChaosKnobs& k, Outcome& out) {
  const auto kind = cluster::FsKind::kBurstBuffer;
  sim::Simulation& sim = c.sim();

  // Phase 1: DFSIO write burst (the crash schedule fires mid-burst).
  auto write_result = co_await mapred::dfsio_write(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), k.dfsio);
  out.write_ok = write_result.is_ok();
  if (write_result.is_ok()) {
    out.write_mbps = write_result.value().aggregate_mbps;
  }
  co_await c.bb_master().wait_all_flushed();
  out.blocks_lost = c.bb_master().lost_blocks();
  out.blocks_recovered = c.bb_master().recovered_blocks();

  // Phase 2: verified read-back of every file, from rotated nodes.
  co_await verified_readback(c, k, out);

  // Phase 3: Sort with the fault schedule still armed (RPC faults apply to
  // the whole run; later crashes land here in the full schedule).
  mapred::GenerateParams gen;
  gen.files = k.dfsio.files;
  gen.records_per_file = k.records_per_file;
  auto generated = co_await mapred::generate_records_input(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
  if (generated.is_ok()) {
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < k.dfsio.files; ++i) {
      inputs.push_back(gen.dir + "/part-" + std::to_string(i));
    }
    auto runner = c.make_runner(kind);
    mapred::SortJob job(8);
    const SimTime sort_start = sim.now();
    auto stats = co_await runner->run(job, inputs, "/out/chaos_sort");
    if (stats.is_ok()) {
      out.sort_s = ns_to_sec(sim.now() - sort_start);
      auto reader = co_await c.filesystem(kind).open("/out/chaos_sort/part-0",
                                                     c.compute_nodes()[0]);
      if (reader.is_ok()) {
        auto data = co_await reader.value()->read(0, reader.value()->size());
        out.sorted = data.is_ok() && mapred::records_sorted(data.value());
      }
    }
  }

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
Task<void> integrity_task(Cluster& c, const ChaosKnobs& k, Outcome& out) {
  const auto kind = cluster::FsKind::kBurstBuffer;
  sim::Simulation& sim = c.sim();

  auto write_result = co_await mapred::dfsio_write(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), k.dfsio);
  out.write_ok = write_result.is_ok();
  if (write_result.is_ok()) {
    out.write_mbps = write_result.value().aggregate_mbps;
  } else {
    // A failed burst leaves nothing to corrupt or scrub — say so instead of
    // letting the integrity table read as a vacuous pass.
    std::fprintf(stderr, "warning: integrity DFSIO write failed: %s\n",
                 write_result.status().to_string().c_str());
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

  out.files_total = k.dfsio.files;
  std::uint64_t read_bytes = 0;
  const SimTime read_start = sim.now();
  for (std::uint32_t i = 0; i < k.dfsio.files; ++i) {
    const std::string path = k.dfsio.dir + "/io_file_" + std::to_string(i);
    auto reader = co_await c.filesystem(kind).open(
        path, c.compute_nodes()[(i + 1) % c.compute_nodes().size()]);
    if (!reader.is_ok()) continue;
    bool all_ok = true;
    const std::uint64_t size = reader.value()->size();
    for (std::uint64_t off = 0; off < size; off += 4 * MiB) {
      const std::uint64_t len = std::min<std::uint64_t>(4 * MiB, size - off);
      auto data = co_await reader.value()->read(off, len);
      if (!data.is_ok()) {
        all_ok = false;  // loud failure (kDataLoss on a quarantined block)
        continue;
      }
      if (!verify_pattern(fnv1a(path), off, data.value())) {
        all_ok = false;
        ++out.silent_corruptions;  // OK status with wrong bytes: never allowed
        continue;
      }
      read_bytes += len;
    }
    if (all_ok) ++out.files_readable;
  }
  const SimTime read_ns = sim.now() - read_start;
  out.read_mbps = read_ns == 0
                      ? 0
                      : static_cast<double>(read_bytes) / MiB /
                            (static_cast<double>(read_ns) / duration::sec);

  co_await c.bb_master().wait_all_flushed();
  c.bb_master().stop_heartbeat();
}

// Master crash mid-DFSIO: the write burst is in flight when the scheduled
// faults.master.* crash takes the control plane (and its fabric node) down.
// Clients ride the outage on the retry policy; recovery replays the journal
// and reconciles, then the read-back verifies every byte survived.
Task<void> master_crash_task(Cluster& c, const ChaosKnobs& k, Outcome& out) {
  const auto kind = cluster::FsKind::kBurstBuffer;
  auto write_result = co_await mapred::dfsio_write(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), k.dfsio);
  out.write_ok = write_result.is_ok();
  if (write_result.is_ok()) {
    out.write_mbps = write_result.value().aggregate_mbps;
  }
  co_await c.bb_master().wait_recovered();
  co_await c.bb_master().wait_all_flushed();
  out.blocks_lost = c.bb_master().lost_blocks();
  out.blocks_recovered = c.bb_master().recovered_blocks();

  co_await verified_readback(c, k, out);
  c.bb_master().stop_heartbeat();
}

void collect_counters(Cluster& c, Outcome& out) {
  MetricRegistry& metrics = c.sim().metrics();
  out.retry_attempts = metrics.counter_value("net.retry.attempts");
  out.retry_recovered = metrics.counter_value("net.retry.recovered");
  out.failovers = metrics.counter_value("kv.failover.get") +
                  metrics.counter_value("kv.failover.set");
  out.restarts = metrics.counter_value("kv.restarts");
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("faults.injected", 0) == 0) out.faults_injected += value;
  }
  const auto histograms = metrics.histograms();
  if (const auto it = histograms.find("bb.degraded_window_ns");
      it != histograms.end()) {
    out.recovery_s = ns_to_sec(it->second.sum);
    out.degraded_windows = it->second.count;
  }
  out.repl_repair_bytes = metrics.counter_value("kv.repl.repair_bytes");
  out.repl_repair_chunks = metrics.counter_value("kv.repl.repair_chunks");
  out.repl_repair_failed = metrics.counter_value("kv.repl.repair_failed");
  out.repl_anti_entropy_chunks =
      metrics.counter_value("kv.repl.anti_entropy_chunks");
  out.repl_replica_reads = metrics.counter_value("kv.repl.replica_reads");
  const auto gauges = metrics.gauges();
  if (const auto it = gauges.find("kv.repl.under_replicated");
      it != gauges.end()) {
    out.under_replicated_peak = it->second.high_watermark;
  }
  if (const auto it = histograms.find("kv.repl.repair_ns");
      it != histograms.end()) {
    out.repair_hist = it->second;
  }
  if (const auto it = histograms.find("kv.repl.anti_entropy_ns");
      it != histograms.end()) {
    out.anti_entropy_hist = it->second;
  }
  out.integ_detected = metrics.counter_value("kv.integrity.detected");
  out.integ_repaired = metrics.counter_value("kv.integrity.repaired") +
                       metrics.counter_value("kv.scrub.repaired");
  out.integ_unrepairable =
      metrics.counter_value("kv.integrity.unrepairable") +
      metrics.counter_value("kv.scrub.unrepairable");
  out.scrub_passes = metrics.counter_value("kv.scrub.passes");
  out.scrub_chunks = metrics.counter_value("kv.scrub.chunks");
  out.quarantined = c.bb_master().quarantined_blocks();
  out.md_recovered_files = metrics.counter_value("bb.md.recovered_files");
  out.md_replayed_records = metrics.counter_value("bb.md.replayed_records");
  out.md_restarts = metrics.counter_value("bb.md.restarts");
  out.md_journal_records = metrics.counter_value("bb.md.journal_records");
  out.md_checkpoints = metrics.counter_value("bb.md.checkpoints");
  out.md_recovery_errors = metrics.counter_value("bb.md.recovery_errors");
  if (const auto it = histograms.find("bb.md.recovery_ns");
      it != histograms.end()) {
    out.md_recovery_hist = it->second;
  }
}

Outcome run_scheme(bb::Scheme scheme, const Properties& props,
                   const ChaosKnobs& k, bool with_faults,
                   std::uint32_t repl_factor = 0) {
  ClusterConfig config = chaos_config(scheme, props, k);
  if (!with_faults) config.faults = faults::InjectorParams{};
  if (repl_factor > 0) config.kv_client.replication_factor = repl_factor;
  Cluster cluster(config);
  Outcome outcome;
  hpcbb::bench::run_to_completion(cluster,
                                  chaos_task(cluster, k, outcome));
  collect_counters(cluster, outcome);
  return outcome;
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

Outcome run_integrity(const Properties& props, const ChaosKnobs& k,
                      std::uint32_t repl_factor) {
  Cluster cluster(integrity_config(props, k, repl_factor));
  Outcome outcome;
  hpcbb::bench::run_to_completion(cluster,
                                  integrity_task(cluster, k, outcome));
  collect_counters(cluster, outcome);
  return outcome;
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

Outcome run_master_crash(bb::Scheme scheme, const Properties& props,
                         const ChaosKnobs& k, std::uint32_t repl_factor) {
  Cluster cluster(master_crash_config(scheme, props, k, repl_factor));
  Outcome outcome;
  hpcbb::bench::run_to_completion(cluster,
                                  master_crash_task(cluster, k, outcome));
  collect_counters(cluster, outcome);
  return outcome;
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

// DFSIO burst + flush drain for the limpware class: no crash/RPC faults, so
// every slow flush is attributable to the degraded devices.
Task<void> limp_task(Cluster& c, const ChaosKnobs& k, Outcome& out) {
  const auto kind = cluster::FsKind::kBurstBuffer;
  auto write_result = co_await mapred::dfsio_write(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), k.dfsio);
  out.write_ok = write_result.is_ok();
  if (write_result.is_ok()) {
    out.write_mbps = write_result.value().aggregate_mbps;
  }
  co_await c.bb_master().wait_all_flushed();
  c.bb_master().stop_heartbeat();
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

// The limpware SLO threshold is relative: 3x the put-latency max of a
// fault-free run of the same workload, so the rule tracks the geometry
// instead of hard-coding a simulator constant.
std::uint64_t healthy_put_max_ns(const Properties& props,
                                 const ChaosKnobs& k) {
  ClusterConfig config = chaos_config(bb::Scheme::kAsync, props, k);
  config.faults = faults::InjectorParams{};
  Cluster cluster(config);
  Outcome outcome;
  hpcbb::bench::run_to_completion(cluster, limp_task(cluster, k, outcome));
  const auto histograms = cluster.sim().metrics().histograms();
  const auto it = histograms.find("kv.put");
  return it != histograms.end() ? it->second.max : 0;
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
  std::uint64_t flightrec_dropped = 0;
};

using HealthTask = Task<void> (*)(Cluster&, const ChaosKnobs&, Outcome&);

// One instrumented run: `config` carries the fault schedule (or none, for
// the healthy twin), `slo` the rule set. Fills the monitor-side fields of
// HealthOutcome; healthy_alerts is merged by the caller.
HealthOutcome run_health(const ClusterConfig& config, const Properties& slo,
                         const ChaosKnobs& k, const std::string& rule,
                         HealthTask task) {
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
  std::optional<HealthHarness> harness_storage;
  Cluster cluster(config);
  const SimTime interval = k.smoke ? 2 * duration::ms : 10 * duration::ms;
  HealthHarness& harness = harness_storage.emplace(
      cluster, std::move(params).value(), interval);
  Outcome outcome;
  harness.sampler.start();
  hpcbb::bench::run_to_completion(
      cluster, with_sampler(task(cluster, k, outcome), harness.sampler));
  out.warns = harness.monitor.warn_count();
  out.pages = harness.monitor.page_count();
  out.resolves = harness.monitor.resolve_count();
  out.incidents = harness.monitor.incidents().size();
  out.flightrec_dropped = harness.flightrec.dropped_total();
  for (const obs::AlertEvent& event : harness.monitor.transitions()) {
    if (event.rule == rule && event.to == obs::AlertState::kPage) {
      out.rule_paged = true;
    }
  }
  for (const obs::Incident& incident : harness.monitor.incidents()) {
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
  return out;
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

  hpcbb::bench::print_header(
      "A4",
      "chaos: DFSIO + Sort under rolling KV crashes and transient RPC faults",
      "FT schemes lose nothing and stay readable; throughput degrades "
      "bounded; the cluster recovers within the downtime window");
  std::printf("faults: seed=%llu drop=%.4f delay=%.4f crashes=%u "
              "(downtime %.0fms)%s\n",
              static_cast<unsigned long long>(shown.seed),
              shown.rpc_drop_prob, shown.rpc_delay_prob, shown.crash_count,
              static_cast<double>(shown.crash_downtime_ns) /
                  hpcbb::duration::ms,
              knobs.smoke ? "  [smoke]" : "");
  hpcbb::bench::JsonResult result(
      "a4", "chaos: DFSIO + Sort under rolling crashes and RPC faults");

  std::printf("\n%-10s %5s %5s %9s %9s %7s %8s %8s %7s %7s %6s\n",
              "scheme", "lost", "recov", "readable", "wr-deg%", "rd-deg%",
              "recov-s", "retries", "failov", "sort-s", "sorted");
  for (const bb::Scheme scheme :
       {bb::Scheme::kAsync, bb::Scheme::kSync, bb::Scheme::kLocal}) {
    const Outcome healthy = run_scheme(scheme, props, knobs, false);
    const Outcome chaos = run_scheme(scheme, props, knobs, true);
    const std::string label(to_string(scheme));
    const double wr_frac = hpcbb::bench::ratio(chaos.write_mbps,
                                               healthy.write_mbps);
    const double rd_frac = hpcbb::bench::ratio(chaos.read_mbps,
                                               healthy.read_mbps);
    std::printf("%-10s %5llu %5llu %6u/%-2u %8.0f%% %6.0f%% %8.3f %8llu "
                "%7llu %7.2f %6s\n",
                label.c_str(),
                static_cast<unsigned long long>(chaos.blocks_lost),
                static_cast<unsigned long long>(chaos.blocks_recovered),
                chaos.files_readable, chaos.files_total, 100.0 * wr_frac,
                100.0 * rd_frac, chaos.recovery_s,
                static_cast<unsigned long long>(chaos.retry_attempts),
                static_cast<unsigned long long>(chaos.failovers),
                chaos.sort_s, chaos.sorted ? "yes" : "NO");
    result.add("blocks-lost", label, static_cast<double>(chaos.blocks_lost));
    result.add("blocks-recovered", label,
               static_cast<double>(chaos.blocks_recovered));
    result.add("files-readable", label,
               static_cast<double>(chaos.files_readable));
    result.add("write-healthy-mbps", label, healthy.write_mbps);
    result.add("write-chaos-mbps", label, chaos.write_mbps);
    result.add("read-healthy-mbps", label, healthy.read_mbps);
    result.add("read-chaos-mbps", label, chaos.read_mbps);
    result.add("recovery-s", label, chaos.recovery_s);
    result.add("degraded-windows", label,
               static_cast<double>(chaos.degraded_windows));
    result.add("retry-attempts", label,
               static_cast<double>(chaos.retry_attempts));
    result.add("retry-recovered", label,
               static_cast<double>(chaos.retry_recovered));
    result.add("failovers", label, static_cast<double>(chaos.failovers));
    result.add("kv-restarts", label, static_cast<double>(chaos.restarts));
    result.add("faults-injected", label,
               static_cast<double>(chaos.faults_injected));
    result.add("sort-chaos-s", label, chaos.sort_s);
    result.add("sort-sorted", label, chaos.sorted ? 1.0 : 0.0);
  }
  std::printf("\n(wr/rd-deg%% = chaos throughput as a fraction of the "
              "healthy run with identical resilience settings)\n");

  // ---- replicated mode: BB-Async at R=1 vs R=2 under the same crash
  // schedule. R=1 documents the durability window (dirty chunks die with
  // their server); R=2 must report zero lost blocks and every file
  // readable, with the repair/anti-entropy traffic accounted.
  std::printf("\nreplication (bb-async under chaos):\n");
  std::printf("%-5s %5s %9s %11s %7s %7s %9s %11s %11s\n",
              "R", "lost", "readable", "repair-MiB", "chunks", "a-e",
              "rd-repl", "repair-ms", "underrepl");
  for (const std::uint32_t factor : {1u, 2u}) {
    const Outcome o =
        run_scheme(bb::Scheme::kAsync, props, knobs, true, factor);
    const std::string label = "R=" + std::to_string(factor);
    std::printf("%-5s %5llu %6u/%-2u %11.1f %7llu %7llu %9llu %11.2f %11llu\n",
                label.c_str(),
                static_cast<unsigned long long>(o.blocks_lost),
                o.files_readable, o.files_total,
                static_cast<double>(o.repl_repair_bytes) / MiB,
                static_cast<unsigned long long>(o.repl_repair_chunks),
                static_cast<unsigned long long>(o.repl_anti_entropy_chunks),
                static_cast<unsigned long long>(o.repl_replica_reads),
                static_cast<double>(o.repair_hist.max) / hpcbb::duration::ms,
                static_cast<unsigned long long>(o.under_replicated_peak));
    result.add("repl-blocks-lost", label,
               static_cast<double>(o.blocks_lost));
    result.add("repl-files-readable", label,
               static_cast<double>(o.files_readable));
    result.add("repl-write-chaos-mbps", label, o.write_mbps);
    result.add("repl-read-chaos-mbps", label, o.read_mbps);
    result.add("repl-repair-bytes", label,
               static_cast<double>(o.repl_repair_bytes));
    result.add("repl-repair-chunks", label,
               static_cast<double>(o.repl_repair_chunks));
    result.add("repl-repair-failed", label,
               static_cast<double>(o.repl_repair_failed));
    result.add("repl-anti-entropy-chunks", label,
               static_cast<double>(o.repl_anti_entropy_chunks));
    result.add("repl-replica-reads", label,
               static_cast<double>(o.repl_replica_reads));
    result.add("repl-under-replicated-peak", label,
               static_cast<double>(o.under_replicated_peak));
    result.add("repl-repair-runs", label,
               static_cast<double>(o.repair_hist.count));
    result.add("repl-repair-p50-ms", label,
               static_cast<double>(o.repair_hist.p50) / hpcbb::duration::ms);
    result.add("repl-repair-p99-ms", label,
               static_cast<double>(o.repair_hist.p99) / hpcbb::duration::ms);
    result.add("repl-repair-max-ms", label,
               static_cast<double>(o.repair_hist.max) / hpcbb::duration::ms);
    result.add("repl-anti-entropy-p50-ms", label,
               static_cast<double>(o.anti_entropy_hist.p50) /
                   hpcbb::duration::ms);
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
  std::printf("\nintegrity (bb-async corruption storm, scrubber on):\n");
  std::printf("%-5s %7s %7s %7s %8s %7s %7s %9s %7s\n",
              "R", "detect", "repair", "unrep", "quarant", "silent",
              "passes", "readable", "inject");
  for (const std::uint32_t factor : {1u, 2u}) {
    const Outcome o = run_integrity(props, knobs, factor);
    const std::string label = "R=" + std::to_string(factor);
    std::printf("%-5s %7llu %7llu %7llu %8llu %7llu %7llu %6u/%-2u %7llu\n",
                label.c_str(),
                static_cast<unsigned long long>(o.integ_detected),
                static_cast<unsigned long long>(o.integ_repaired),
                static_cast<unsigned long long>(o.integ_unrepairable),
                static_cast<unsigned long long>(o.quarantined),
                static_cast<unsigned long long>(o.silent_corruptions),
                static_cast<unsigned long long>(o.scrub_passes),
                o.files_readable, o.files_total,
                static_cast<unsigned long long>(o.faults_injected));
    result.add("integ-detected", label,
               static_cast<double>(o.integ_detected));
    result.add("integ-repaired", label,
               static_cast<double>(o.integ_repaired));
    result.add("integ-unrepairable", label,
               static_cast<double>(o.integ_unrepairable));
    result.add("integ-quarantined", label,
               static_cast<double>(o.quarantined));
    result.add("integ-silent-corruptions", label,
               static_cast<double>(o.silent_corruptions));
    result.add("integ-scrub-passes", label,
               static_cast<double>(o.scrub_passes));
    result.add("integ-scrub-chunks", label,
               static_cast<double>(o.scrub_chunks));
    result.add("integ-files-readable", label,
               static_cast<double>(o.files_readable));
    result.add("integ-readback-ok", label,
               o.silent_corruptions == 0 ? 1.0 : 0.0);
    result.add("integ-faults-injected", label,
               static_cast<double>(o.faults_injected));
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
  std::printf("\nmaster crash (mid-DFSIO, journal on):\n");
  std::printf("%-10s %-4s %5s %9s %7s %9s %6s %11s %7s %6s %9s\n",
              "scheme", "R", "lost", "readable", "recov-f", "replayed",
              "rstrt", "recov-ms", "jrnl", "ckpt", "zero-loss");
  for (const bb::Scheme scheme :
       {bb::Scheme::kAsync, bb::Scheme::kSync, bb::Scheme::kLocal}) {
    for (const std::uint32_t factor : {1u, 2u}) {
      const Outcome o = run_master_crash(scheme, props, knobs, factor);
      const std::string label =
          std::string(to_string(scheme)) + "/R=" + std::to_string(factor);
      const bool zero_loss = o.blocks_lost == 0 &&
                             o.files_readable == o.files_total &&
                             o.md_restarts >= 1 &&
                             o.md_recovery_errors == 0;
      std::printf(
          "%-10s %-4u %5llu %6u/%-2u %7llu %9llu %6llu %5.1f/%-5.1f %7llu "
          "%6llu %9s\n",
          std::string(to_string(scheme)).c_str(), factor,
          static_cast<unsigned long long>(o.blocks_lost),
          o.files_readable, o.files_total,
          static_cast<unsigned long long>(o.md_recovered_files),
          static_cast<unsigned long long>(o.md_replayed_records),
          static_cast<unsigned long long>(o.md_restarts),
          static_cast<double>(o.md_recovery_hist.p50) / hpcbb::duration::ms,
          static_cast<double>(o.md_recovery_hist.max) / hpcbb::duration::ms,
          static_cast<unsigned long long>(o.md_journal_records),
          static_cast<unsigned long long>(o.md_checkpoints),
          zero_loss ? "yes" : "NO");
      result.add("master-blocks-lost", label,
                 static_cast<double>(o.blocks_lost));
      result.add("master-files-readable", label,
                 static_cast<double>(o.files_readable));
      result.add("master-recovered-files", label,
                 static_cast<double>(o.md_recovered_files));
      result.add("master-replayed-records", label,
                 static_cast<double>(o.md_replayed_records));
      result.add("master-restarts", label,
                 static_cast<double>(o.md_restarts));
      result.add("master-recovery-p50-ms", label,
                 static_cast<double>(o.md_recovery_hist.p50) /
                     hpcbb::duration::ms);
      result.add("master-recovery-max-ms", label,
                 static_cast<double>(o.md_recovery_hist.max) /
                     hpcbb::duration::ms);
      result.add("master-journal-records", label,
                 static_cast<double>(o.md_journal_records));
      result.add("master-checkpoints", label,
                 static_cast<double>(o.md_checkpoints));
      result.add("master-recovery-errors", label,
                 static_cast<double>(o.md_recovery_errors));
      result.add("master-write-mbps", label, o.write_mbps);
      result.add("master-retry-attempts", label,
                 static_cast<double>(o.retry_attempts));
      result.add("master-zero-md-loss", label, zero_loss ? 1.0 : 0.0);
    }
  }
  std::printf("(recov-ms = journal-replay recovery time p50/max; zero-loss "
              "= no lost blocks, every file readable, recovery clean — the "
              "R=2 invariant)\n");

  // ---- health monitor: every fault class above re-run with the SLO engine
  // armed. The class's mapped rule must page with a parseable incident
  // bundle that correlates the injected faults, and the fault-free twin of
  // the same run must fire zero alerts (EXPERIMENTS.md alert table).
  std::printf("\nhealth monitor (SLO burn-rate alerts per fault class):\n");
  std::printf("%-12s %-24s %7s %5s %8s %6s %6s %6s %8s\n",
              "class", "rule", "healthy", "pages", "resolves", "incid",
              "bundle", "fault", "suspect");
  bool health_ok = true;
  const std::string inc_dir = incident_dir();
  const auto slo_base = [&inc_dir](const char* prefix) {
    Properties slo;
    slo.set("slo.incident_dir", inc_dir);
    slo.set("slo.incident_prefix", prefix);
    return slo;
  };
  const auto report_health = [&](const char* cls, const char* rule,
                                 const HealthOutcome& o,
                                 bool expect_suspects) {
    const bool ok = o.rule_paged && o.bundle_ok && o.bundle_faults &&
                    o.healthy_alerts == 0 &&
                    (!expect_suspects || o.bundle_suspects);
    health_ok = health_ok && ok;
    std::printf("%-12s %-24s %7llu %5llu %8llu %6zu %6s %6s %8s%s\n", cls,
                rule, static_cast<unsigned long long>(o.healthy_alerts),
                static_cast<unsigned long long>(o.pages),
                static_cast<unsigned long long>(o.resolves), o.incidents,
                o.bundle_ok ? "yes" : "NO", o.bundle_faults ? "yes" : "NO",
                o.bundle_suspects ? "yes" : "-", ok ? "" : "   <- FAIL");
    result.add("health-pages", cls, static_cast<double>(o.pages));
    result.add("health-warns", cls, static_cast<double>(o.warns));
    result.add("health-resolves", cls, static_cast<double>(o.resolves));
    result.add("health-incidents", cls, static_cast<double>(o.incidents));
    result.add("health-healthy-alerts", cls,
               static_cast<double>(o.healthy_alerts));
    result.add("health-rule-paged", cls, o.rule_paged ? 1.0 : 0.0);
    result.add("health-bundle-ok", cls, o.bundle_ok ? 1.0 : 0.0);
    result.add("health-flightrec-dropped", cls,
               static_cast<double>(o.flightrec_dropped));
  };
  const auto healthy_alerts = [](const HealthOutcome& o) {
    return o.warns + o.pages + o.resolves;
  };

  {
    // KV crash: the failure detector's live-peer gauge dips below the full
    // ring while a server is down.
    const ClusterConfig faulted =
        chaos_config(bb::Scheme::kAsync, props, knobs);
    ClusterConfig healthy = faulted;
    healthy.faults = faults::InjectorParams{};
    Properties slo = slo_base("incident-kvcrash");
    slo.set("slo.kv_live_min", std::to_string(faulted.kv_servers));
    HealthOutcome chaos =
        run_health(faulted, slo, knobs, "kv_live_min", chaos_task);
    chaos.healthy_alerts = healthy_alerts(
        run_health(healthy, slo, knobs, "kv_live_min", chaos_task));
    report_health("kv-crash", "kv_live_min", chaos, true);
  }
  {
    // Master crash: the control-plane liveness gauge drops to 0 for the
    // whole downtime window.
    ClusterConfig faulted = master_crash_config(bb::Scheme::kAsync, props,
                                                knobs, 1);
    ClusterConfig healthy = faulted;
    healthy.faults = faults::InjectorParams{};
    Properties slo = slo_base("incident-master");
    slo.set("slo.master_up_min", "1");
    HealthOutcome chaos =
        run_health(faulted, slo, knobs, "master_up_min", master_crash_task);
    chaos.healthy_alerts = healthy_alerts(
        run_health(healthy, slo, knobs, "master_up_min", master_crash_task));
    report_health("master-crash", "master_up_min", chaos, true);
  }
  {
    // Corruption storm: any verified-read or scrubber detection at all is a
    // breach (threshold 0 on the cumulative detection counters).
    ClusterConfig faulted = integrity_config(props, knobs, 1);
    ClusterConfig healthy = faulted;
    healthy.faults = faults::InjectorParams{};
    Properties slo = slo_base("incident-corrupt");
    slo.set("slo.integrity_detected_max", "0");
    HealthOutcome chaos = run_health(faulted, slo, knobs,
                                     "integrity_detected_max", integrity_task);
    chaos.healthy_alerts = healthy_alerts(run_health(
        healthy, slo, knobs, "integrity_detected_max", integrity_task));
    report_health("corruption", "integrity_detected_max", chaos, false);
  }
  {
    // Limpware: put latency through the degraded journal SSD blows past 3x
    // the fault-free maximum of the same workload (generic max_max rule —
    // no built-in needed for a metric named in the key).
    const std::uint64_t baseline = healthy_put_max_ns(props, knobs);
    ClusterConfig faulted = limp_config(props, knobs);
    ClusterConfig healthy = faulted;
    healthy.faults = faults::InjectorParams{};
    Properties slo = slo_base("incident-limp");
    slo.set("slo.max_max.kv.put", std::to_string(3 * baseline) + "ns");
    HealthOutcome chaos =
        run_health(faulted, slo, knobs, "max_max.kv.put", limp_task);
    chaos.healthy_alerts = healthy_alerts(
        run_health(healthy, slo, knobs, "max_max.kv.put", limp_task));
    report_health("limpware", "max_max.kv.put", chaos, false);
    result.add("health-limp-baseline-put-ms", "limpware",
               static_cast<double>(baseline) / hpcbb::duration::ms);
  }
  std::printf("(healthy = alert transitions in the fault-free twin, must be "
              "0; bundle = hpcbb.incident.v1 with flight-recorder rings; "
              "fault/suspect = the bundle correlates injected faults and "
              "in-flight op_ids)\n");
  std::printf("\n%s: every fault class paged its mapped SLO rule with a "
              "parseable incident bundle and zero healthy-run alerts\n",
              health_ok ? "PASS" : "FAIL");

  const int gate_rc = hpcbb::bench::finish(result, argc, argv);
  return health_ok ? gate_rc : 1;
}
