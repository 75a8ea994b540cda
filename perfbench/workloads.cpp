#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/units.h"
#include "kvstore/client.h"
#include "mapred/records.h"
#include "mapred/workloads.h"
#include "obs/attribution.h"
#include "sim/sync.h"
#include "sim/trace.h"
#include "timed_fs.h"

namespace hpcbb::perfbench {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using sim::SimTime;
using sim::Task;
using Clock = std::chrono::steady_clock;

constexpr FsKind kBb = FsKind::kBurstBuffer;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ns_to_us(SimTime ns) { return static_cast<double>(ns) / 1e3; }

// Nearest-rank quantile of simulated durations in microseconds; 0 if empty.
double quantile_us(std::vector<SimTime> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return ns_to_us(values[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Zeroes counters and histograms, and drops gauge high-watermarks to the
// current level, so the per-layer figures describe the timed phase alone.
// No component reads the registry to make a decision, so this is invisible
// to the simulation.
void clear_metrics(MetricRegistry& metrics) {
  for (const auto& [name, value] : metrics.counters()) {
    metrics.counter(name).reset();
  }
  for (const auto& [name, snapshot] : metrics.histograms()) {
    metrics.histogram(name).reset();
  }
  for (const auto& [name, snapshot] : metrics.gauges()) {
    Gauge& gauge = metrics.gauge(name);
    const std::uint64_t level = gauge.get();
    gauge.reset();
    gauge.set(level);
  }
}

// The timed phase of one repetition: host clock, simulated clock and event
// count at its edges. A traced phase also attaches a span recorder feeding
// the attribution engine; begin() and end() run inside the simulation.
// Spans opened by the cluster's actors hold the recorder until the cluster
// is destroyed, so a Phase must be declared before (outlive) its cluster.
class Phase {
 public:
  explicit Phase(bool traced) : traced_(traced) {}
  Phase(const Phase&) = delete;  // the span sink holds `this`
  Phase& operator=(const Phase&) = delete;

  void begin(Cluster& cluster) {
    sim::Simulation& sim = cluster.sim();
    clear_metrics(sim.metrics());
    if (traced_) {
      recorder_ = std::make_unique<sim::TraceRecorder>(sim);
      recorder_->set_span_sink(
          [this](const sim::TraceSpan& span) {
            accountant_.on_span_close(span);
          });
      sim.set_trace(recorder_.get());
      cluster.bb_master().set_trace(recorder_.get());
    }
    sim_begin_ = sim.now();
    events_begin_ = sim.events_processed();
    host_begin_ = Clock::now();
  }

  void end(Cluster& cluster) {
    host_end_ = Clock::now();
    sim_end_ = cluster.sim().now();
    events_end_ = cluster.sim().events_processed();
  }

  [[nodiscard]] bool traced() const noexcept { return traced_; }
  [[nodiscard]] double host_s() const {
    return seconds_between(host_begin_, host_end_);
  }
  [[nodiscard]] SimTime sim_ns() const noexcept {
    return sim_end_ - sim_begin_;
  }
  [[nodiscard]] double events() const noexcept {
    return static_cast<double>(events_end_ - events_begin_);
  }
  [[nodiscard]] const obs::SpanAccountant& accountant() const noexcept {
    return accountant_;
  }
  [[nodiscard]] double spans() const noexcept {
    return recorder_ ? static_cast<double>(recorder_->spans().size()) : 0;
  }

 private:
  bool traced_;
  std::unique_ptr<sim::TraceRecorder> recorder_;
  obs::SpanAccountant accountant_;
  Clock::time_point host_begin_, host_end_;
  SimTime sim_begin_ = 0, sim_end_ = 0;
  std::uint64_t events_begin_ = 0, events_end_ = 0;
};

// What a workload knows beyond the registry, for the per-layer figures.
struct LayerInputs {
  const CallTimes* calls = nullptr;
  const mapred::JobStats* job = nullptr;
  SimTime drain_ns = 0;
  double user_ops = 0;    // calls the workload's clients made
  double user_bytes = 0;  // bytes they wrote plus bytes they read
  const std::vector<SimTime>* kv_get_ns = nullptr;  // client-side latencies
  const std::vector<SimTime>* kv_set_ns = nullptr;
};

// Every per-layer metric, 0 where the workload does not reach the layer.
std::map<std::string, double> layer_metrics(Cluster& cluster,
                                            const Phase& phase,
                                            const LayerInputs& in) {
  const MetricRegistry& m = cluster.sim().metrics();
  auto count = [&m](const char* name) {
    return static_cast<double>(m.find_counter(name).value_or(0));
  };
  auto hist_us = [&m](const char* name, double q) {
    return ns_to_us(m.histogram_quantile(name, q).value_or(0));
  };
  auto gauge_max = [&m](const char* name) {
    const auto gauge = m.find_gauge(name);
    return gauge ? static_cast<double>(gauge->high_watermark) : 0.0;
  };
  const CallTimes none;
  const CallTimes& calls = in.calls != nullptr ? *in.calls : none;
  const mapred::JobStats job = in.job != nullptr ? *in.job : mapred::JobStats{};

  std::map<std::string, double> out;
  out["sim.events"] = phase.events();

  out["mapred.map_phase_s"] = ns_to_sec(job.map_phase_ns);
  out["mapred.reduce_phase_s"] = ns_to_sec(job.reduce_phase_ns);
  out["mapred.shuffle_mb"] = static_cast<double>(job.shuffle_bytes) / 1e6;
  out["mapred.locality"] = job.locality_fraction();

  out["burstbuffer.create_us.p50"] = quantile_us(calls.create, 0.50);
  out["burstbuffer.append_us.p50"] = quantile_us(calls.append, 0.50);
  out["burstbuffer.append_us.p99"] = quantile_us(calls.append, 0.99);
  out["burstbuffer.close_us.p99"] = quantile_us(calls.close, 0.99);
  out["burstbuffer.read_us.p50"] = quantile_us(calls.read, 0.50);
  out["burstbuffer.read_us.p99"] = quantile_us(calls.read, 0.99);
  out["burstbuffer.flush_ms.p50"] = hist_us("bb.flush_ns", 0.50) / 1e3;
  out["burstbuffer.flush_ms.p99"] = hist_us("bb.flush_ns", 0.99) / 1e3;
  out["burstbuffer.flush_queue_depth.max"] = gauge_max("bb.flush_queue_depth");
  out["burstbuffer.flush_drain_s"] = ns_to_sec(in.drain_ns);
  out["burstbuffer.lustre_fallbacks"] = count("bb.read.lustre_fallbacks");
  out["burstbuffer.backpressure_retries"] =
      count("bb.store.backpressure_retries");

  out["flowctl.stalls"] = count("flowctl.stalls");
  out["flowctl.stall_us.p99"] = hist_us("flowctl.stall_ns", 0.99);

  const std::vector<SimTime> no_samples;
  const auto& get_ns = in.kv_get_ns != nullptr ? *in.kv_get_ns : no_samples;
  const auto& set_ns = in.kv_set_ns != nullptr ? *in.kv_set_ns : no_samples;
  out["kvstore.client_get_us.p50"] = quantile_us(get_ns, 0.50);
  out["kvstore.client_get_us.p99"] = quantile_us(get_ns, 0.99);
  out["kvstore.client_set_us.p50"] = quantile_us(set_ns, 0.50);
  out["kvstore.client_set_us.p99"] = quantile_us(set_ns, 0.99);
  const double hits = count("kv.hits");
  out["kvstore.server_get_us.p50"] = hist_us("kv.get", 0.50);
  out["kvstore.server_get_us.p99"] = hist_us("kv.get", 0.99);
  out["kvstore.server_put_us.p50"] = hist_us("kv.put", 0.50);
  out["kvstore.server_put_us.p99"] = hist_us("kv.put", 0.99);
  out["kvstore.hit_ratio"] = ratio(hits, hits + count("kv.misses"));
  out["kvstore.evictions"] = count("kv.evictions");
  out["kvstore.integrity_detected"] = count("kv.integrity.detected");

  out["net.rpc_calls_per_op"] = ratio(count("net.rpc.calls"), in.user_ops);
  out["net.tx_bytes_per_user_byte"] =
      ratio(count("net.tx_bytes"), in.user_bytes);
  out["net.rdma_read_bytes_per_user_byte"] =
      ratio(count("net.rdma_read_bytes"), in.user_bytes);
  out["net.rpc_us.p99"] = hist_us("net.rpc", 0.99);
  out["net.retry_attempts"] = count("net.retry.attempts");

  out["lustre.write_bytes_per_user_byte"] =
      ratio(count("lustre.write_bytes"), in.user_bytes);
  out["lustre.write_ms.p99"] = hist_us("lustre.write", 0.99) / 1e3;
  out["lustre.queue_depth.max"] = gauge_max("lustre.queue_depth");
  out["lustre.read_bytes"] = count("lustre.read_bytes");

  // Critical-path attribution summed over every op the phase traced.
  std::map<std::string, std::pair<SimTime, SimTime>> by_layer;
  for (const obs::OpAttribution& op : phase.accountant().attribute_all()) {
    for (const obs::LayerSlice& slice : op.layers) {
      by_layer[slice.layer].first += slice.service_ns;
      by_layer[slice.layer].second += slice.queue_ns;
    }
  }
  for (const char* layer :
       {"client", "flusher", "kv", "lustre", "flowctl", "mapred", "idle"}) {
    const auto& [service, queue] = by_layer[layer];
    out[std::string("attr.") + layer + ".service_s"] = ns_to_sec(service);
    out[std::string("attr.") + layer + ".queue_s"] = ns_to_sec(queue);
  }
  out["trace.spans"] = phase.spans();
  return out;
}

// Counts a failed or wrong-bytes op; the first few are kept as messages.
void fail(RepResult& out, std::string what) {
  constexpr std::size_t kMaxMessages = 8;
  out.correct = false;
  ++out.failed;
  if (out.errors.size() < kMaxMessages) out.errors.push_back(std::move(what));
}

std::size_t call_count(const CallTimes& c) {
  return c.create.size() + c.append.size() + c.close.size() + c.open.size() +
         c.read.size();
}

// ---- dfsio-async -----------------------------------------------------------

constexpr int kSetupRounds = 31;
constexpr std::uint32_t kDfsioFiles = 8;
constexpr std::uint64_t kDfsioFileSize = 64 * MiB;
constexpr std::uint64_t kDfsioChunk = 4 * MiB;
constexpr SimTime kMaxLaunchSkew = 100 * duration::us;
const char* const kDfsioDir = "/benchmarks/TestDFSIO";

// TestDFSIO as mapred::dfsio_write/read run it, plus what the seed needs:
// contents seeded by it, and a seeded task-launch skew, as real map tasks
// never start in the same nanosecond. Task `task` of phase `phase` starts up
// to 100 us late; seed 0 launches every task at once, as mapred does.
SimTime launch_skew(std::uint64_t seed, std::uint64_t phase,
                    std::uint64_t task) {
  if (seed == 0) return 0;
  return SplitMix64(seed * 64 + phase * 16 + task).next() % kMaxLaunchSkew;
}

std::uint64_t content_seed(std::uint64_t seed, const std::string& path) {
  return fnv1a(path) ^ (seed * 0x9E3779B97F4A7C15ull);
}

struct FileTask {
  Status status;
  std::uint64_t bytes = 0;
};

// One TestDFSIO write task: create, append 4 MiB pattern chunks, close.
Task<FileTask> dfsio_write_file(sim::Simulation& sim, fs::FileSystem& f,
                                std::string path, net::NodeId node,
                                std::uint64_t seed, SimTime skew) {
  if (skew > 0) co_await sim.delay(skew);
  FileTask task;
  auto writer = co_await f.create(path, node);
  if (!writer.is_ok()) {
    task.status = writer.status();
    co_return task;
  }
  for (std::uint64_t off = 0; off < kDfsioFileSize; off += kDfsioChunk) {
    Status st = co_await writer.value()->append(
        make_bytes(pattern_bytes(seed, off, kDfsioChunk)));
    if (!st.is_ok()) {
      task.status = std::move(st);
      co_return task;
    }
    task.bytes += kDfsioChunk;
  }
  task.status = co_await writer.value()->close();
  co_return task;
}

// One TestDFSIO read task: read the file in 4 MiB calls, verifying every
// byte against its pattern.
Task<FileTask> dfsio_read_file(sim::Simulation& sim, fs::FileSystem& f,
                               std::string path, net::NodeId node,
                               std::uint64_t seed, SimTime skew) {
  if (skew > 0) co_await sim.delay(skew);
  FileTask task;
  auto reader = co_await f.open(path, node);
  if (!reader.is_ok()) {
    task.status = reader.status();
    co_return task;
  }
  const std::uint64_t size = reader.value()->size();
  for (std::uint64_t off = 0; off < size; off += kDfsioChunk) {
    auto data =
        co_await reader.value()->read(off, std::min(kDfsioChunk, size - off));
    if (!data.is_ok()) {
      task.status = data.status();
      co_return task;
    }
    if (!verify_pattern(seed, off, data.value())) {
      task.status = error(StatusCode::kDataLoss, "wrong bytes in " + path);
      co_return task;
    }
    task.bytes += data.value().size();
  }
  co_return task;
}

struct DfsioPhase {
  std::uint64_t bytes = 0;
  SimTime elapsed = 0;
  std::vector<std::string> errors;  // one per failed task
};

// Runs one task per file concurrently (writers on node i, readers on node
// i + 1) and collects bytes moved, the phase's makespan and failures.
Task<DfsioPhase> dfsio_phase(Cluster& c, fs::FileSystem& f,
                             std::uint64_t seed, bool read) {
  sim::Simulation& sim = c.sim();
  const auto& nodes = c.compute_nodes();
  const SimTime start = sim.now();
  std::vector<Task<FileTask>> tasks;
  for (std::uint32_t i = 0; i < kDfsioFiles; ++i) {
    const std::string path =
        std::string(kDfsioDir) + "/io_file_" + std::to_string(i);
    const std::uint64_t content = content_seed(seed, path);
    const SimTime skew = launch_skew(seed, read ? 1 : 0, i);
    if (read) {
      tasks.push_back(dfsio_read_file(
          sim, f, path, nodes[(i + 1) % nodes.size()], content, skew));
    } else {
      tasks.push_back(dfsio_write_file(sim, f, path, nodes[i % nodes.size()],
                                       content, skew));
    }
  }
  const std::vector<FileTask> done =
      co_await sim::parallel_collect(sim, std::move(tasks));
  DfsioPhase out;
  for (const FileTask& t : done) {
    out.bytes += t.bytes;
    if (!t.status.is_ok()) {
      out.errors.push_back("dfsio: " + t.status.to_string());
    }
  }
  out.elapsed = sim.now() - start;
  co_return out;
}

// BB-Async TestDFSIO: 8 writers (one per compute node) stream 64 MiB each in
// 4 MiB appends, the flush pipeline drains to Lustre, then 8 readers on the
// next node over read every byte back and verify its pattern.
RepResult run_dfsio(std::uint64_t seed, bool traced) {
  RepResult out;
  Phase phase(traced);
  ClusterConfig config;
  config.scheme = bb::Scheme::kAsync;
  // Set-up is the cluster build alone, a few milliseconds: build it several
  // times and keep the median, so one page-fault burst does not set it.
  std::vector<double> builds;
  std::unique_ptr<Cluster> built;
  for (int i = 0; i < kSetupRounds; ++i) {
    built.reset();
    const Clock::time_point begin = Clock::now();
    built = std::make_unique<Cluster>(config);
    builds.push_back(seconds_between(begin, Clock::now()));
  }
  std::sort(builds.begin(), builds.end());
  out.setup_s = builds[builds.size() / 2];
  Cluster& cluster = *built;

  CallTimes calls;
  TimedFileSystem fs(cluster.filesystem(kBb), cluster.sim(), calls);
  struct Outcome {
    DfsioPhase write, read;
    SimTime drain = 0;
    std::map<std::string, double> layers;
  } o;
  cluster.sim().spawn([](Cluster& c, fs::FileSystem& f, std::uint64_t sd,
                         Phase& ph, CallTimes& ct, Outcome& res) -> Task<void> {
    ph.begin(c);
    res.write = co_await dfsio_phase(c, f, sd, false);
    const SimTime acked = c.sim().now();
    co_await c.bb_master().wait_all_flushed();
    res.drain = c.sim().now() - acked;
    if (res.write.errors.empty()) {
      res.read = co_await dfsio_phase(c, f, sd, true);
    }
    ph.end(c);
    if (ph.traced()) {
      res.layers = layer_metrics(
          c, ph,
          LayerInputs{&ct, nullptr, res.drain,
                      static_cast<double>(call_count(ct)),
                      static_cast<double>(res.write.bytes + res.read.bytes)});
    }
    c.bb_master().stop_heartbeat();
  }(cluster, fs, seed, phase, calls, o));
  cluster.sim().run();

  out.attempted = call_count(calls);
  for (const DfsioPhase* p : {&o.write, &o.read}) {
    for (const std::string& e : p->errors) fail(out, e);
  }
  const std::uint64_t expect = kDfsioFiles * kDfsioFileSize;
  if (out.correct && (o.write.bytes != expect || o.read.bytes != expect)) {
    fail(out, "dfsio: wrote " + std::to_string(o.write.bytes) + " and read " +
                  std::to_string(o.read.bytes) + " bytes, expected " +
                  std::to_string(expect));
  }
  out.host_wall_s = phase.host_s();
  const double write_mbps = throughput_mbps(o.write.bytes, o.write.elapsed);
  const double read_mbps = throughput_mbps(o.read.bytes, o.read.elapsed);
  out.sim = {
      {"sim_elapsed_s", ns_to_sec(phase.sim_ns())},
      {"sim_write_mbps", write_mbps},
      {"sim_read_mbps", read_mbps},
      {"sim.events", phase.events()},
  };
  out.report = {
      {"dfsio_write_mbps", write_mbps},
      {"dfsio_read_mbps", read_mbps},
      {"flush_drain_s", ns_to_sec(o.drain)},
      {"append_p50_us", quantile_us(calls.append, 0.50)},
      {"append_p90_us", quantile_us(calls.append, 0.90)},
      {"read_p50_us", quantile_us(calls.read, 0.50)},
      {"read_p90_us", quantile_us(calls.read, 0.90)},
  };
  out.layers = std::move(o.layers);
  return out;
}

// ---- sort-local ------------------------------------------------------------

constexpr std::uint32_t kSortFiles = 8;
constexpr std::uint64_t kSortRecordsPerFile = 320000;
constexpr std::uint32_t kSortReducers = 16;
constexpr double kSortCpuScale = 18.0;  // EXPERIMENTS.md F5 calibration
const char* const kSortOutput = "/out/sort";

// Reads every output part back and checks global key order, the record
// count and the order-independent multiset checksum against the generator.
Task<void> verify_sort(Cluster& c, std::uint64_t want_records,
                       std::uint64_t want_checksum, RepResult& out) {
  std::uint64_t records = 0, checksum = 0;
  Bytes last_key;
  for (std::uint32_t r = 0; r < kSortReducers; ++r) {
    const std::string path =
        std::string(kSortOutput) + "/part-" + std::to_string(r);
    ++out.attempted;
    auto reader = co_await c.filesystem(kBb).open(
        path, c.compute_nodes()[r % c.compute_nodes().size()]);
    if (!reader.is_ok()) {
      fail(out, "sort: open " + path + ": " + reader.status().to_string());
      continue;
    }
    auto data = co_await reader.value()->read(0, reader.value()->size());
    if (!data.is_ok()) {
      fail(out, "sort: read " + path + ": " + data.status().to_string());
      continue;
    }
    const Bytes& bytes = data.value();
    if (!mapred::records_sorted(bytes)) {
      fail(out, "sort: " + path + " is not sorted");
      continue;
    }
    if (bytes.empty()) continue;
    if (!last_key.empty() &&
        mapred::compare_keys(last_key.data(), bytes.data()) > 0) {
      fail(out, "sort: " + path + " starts below the previous part");
    }
    last_key.assign(bytes.end() - mapred::kRecordSize,
                    bytes.end() - mapred::kRecordSize + mapred::kKeySize);
    records += bytes.size() / mapred::kRecordSize;
    checksum += mapred::records_checksum(bytes);
  }
  if (records != want_records || checksum != want_checksum) {
    fail(out, "sort: output holds " + std::to_string(records) +
                  " records (want " + std::to_string(want_records) +
                  ") or a different record multiset");
  }
}

// BB-Local Sort: set-up writes 8 x 320k records (the scheme keeps a RAM-disk
// replica on the writer's node); the timed phase is one SortJob; then the
// flush drains and every output part is read back and checked.
RepResult run_sort(std::uint64_t seed, bool traced) {
  RepResult out;
  Phase phase(traced);
  const Clock::time_point setup_begin = Clock::now();
  ClusterConfig config;
  config.scheme = bb::Scheme::kLocal;
  Cluster cluster(config);

  mapred::GenerateParams gen;
  gen.files = kSortFiles;
  gen.records_per_file = kSortRecordsPerFile;
  gen.seed += seed;  // seed 0 keeps the generator's default input (F5)

  CallTimes calls;
  TimedFileSystem fs(cluster.filesystem(kBb), cluster.sim(), calls);
  mapred::JobRunner runner(cluster.hub_for(kBb), fs, cluster.compute_nodes(),
                           cluster.config().mapred);
  struct Outcome {
    Clock::time_point setup_end;
    mapred::GenerateResult input;
    mapred::JobStats job;
    SimTime drain = 0;
    std::map<std::string, double> layers;
  } o;
  cluster.sim().spawn([](Cluster& c, mapred::GenerateParams g,
                         mapred::JobRunner& jr, Phase& ph, CallTimes& ct,
                         Outcome& res, RepResult& rep) -> Task<void> {
    auto input = co_await mapred::generate_records_input(
        c.filesystem(kBb), c.hub_for(kBb), c.compute_nodes(), g);
    res.setup_end = Clock::now();
    if (!input.is_ok()) {
      fail(rep, "sort: generate: " + input.status().to_string());
      co_return;
    }
    res.input = input.value();
    std::vector<std::string> inputs;
    for (std::uint32_t i = 0; i < g.files; ++i) {
      inputs.push_back(g.dir + "/part-" + std::to_string(i));
    }
    mapred::SortJob job(kSortReducers, kSortCpuScale);
    ph.begin(c);
    auto stats = co_await jr.run(job, inputs, kSortOutput);
    ph.end(c);
    if (!stats.is_ok()) {
      fail(rep, "sort: job: " + stats.status().to_string());
      co_return;
    }
    res.job = stats.value();
    const SimTime done = c.sim().now();
    co_await c.bb_master().wait_all_flushed();
    res.drain = c.sim().now() - done;
    if (ph.traced()) {
      res.layers = layer_metrics(
          c, ph,
          LayerInputs{&ct, &res.job, res.drain,
                      static_cast<double>(call_count(ct)),
                      static_cast<double>(res.job.input_bytes +
                                          res.job.output_bytes)});
    }
    rep.attempted += call_count(ct);
    co_await verify_sort(c, std::uint64_t{g.files} * g.records_per_file,
                         res.input.checksum, rep);
    c.bb_master().stop_heartbeat();
  }(cluster, gen, runner, phase, calls, o, out));
  cluster.sim().run();

  out.setup_s = seconds_between(setup_begin, o.setup_end);
  out.host_wall_s = phase.host_s();
  out.sim = {
      {"sim_elapsed_s", ns_to_sec(o.job.makespan_ns)},
      {"sim_write_mbps",
       throughput_mbps(o.job.output_bytes, o.job.reduce_phase_ns)},
      {"sim_read_mbps", throughput_mbps(o.job.input_bytes, o.job.map_phase_ns)},
      {"sim.events", phase.events()},
  };
  out.report = {
      {"sort_makespan_s", ns_to_sec(o.job.makespan_ns)},
      {"flush_drain_s", ns_to_sec(o.drain)},
      {"append_p50_us", quantile_us(calls.append, 0.50)},
      {"read_p50_us", quantile_us(calls.read, 0.50)},
      {"read_p90_us", quantile_us(calls.read, 0.90)},
  };
  out.layers = std::move(o.layers);
  return out;
}

// ---- kv-zipf ---------------------------------------------------------------

constexpr std::uint32_t kKvKeys = 64 * 1024;
constexpr std::uint32_t kKvClientsPerNode = 4;
constexpr std::uint64_t kKvOps = 64 * 1024;
constexpr double kZipfTheta = 0.99;
constexpr double kSetFraction = 0.10;
constexpr std::array<std::uint64_t, 4> kKvValueSizes = {1 * KiB, 4 * KiB,
                                                         16 * KiB, 64 * KiB};

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= std::uint64_t{p[b]} << (8 * b);
  return v;
}

// Keys, value contents and the version history the GET checks run against.
// Key k is Zipf rank k; its value size is fixed by k alone, so every seed
// sees the same hot-set footprint and only the request stream varies.
class KvModel {
 public:
  explicit KvModel(std::uint64_t seed)
      : committed(kKvKeys, 0),
        issued(kKvKeys, 0),
        writing(kKvKeys, false),
        seed_(seed),
        cdf_(kKvKeys) {
    double sum = 0;
    for (std::uint32_t k = 0; k < kKvKeys; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k) + 1.0, kZipfTheta);
      cdf_[k] = sum;
    }
    for (double& v : cdf_) v /= sum;
  }

  [[nodiscard]] std::uint32_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), kKvKeys - 1));
  }

  static std::string key(std::uint32_t k) {
    return "zipf:" + std::to_string(k);
  }
  static std::uint64_t size(std::uint32_t k) {
    return kKvValueSizes[SplitMix64(k).next() % kKvValueSizes.size()];
  }

  // The value of version `v` of key `k`: header, then seeded pattern bytes.
  [[nodiscard]] Bytes value(std::uint32_t k, std::uint64_t v) const {
    const std::uint64_t content =
        SplitMix64(seed_ ^ (std::uint64_t{k} << 32) ^ v).next();
    Bytes out = pattern_bytes(content, 0, size(k));
    put_u64(out.data(), k);
    put_u64(out.data() + 8, v);
    return out;
  }

  // True when `data` is exactly some version of key k in [lo, hi].
  [[nodiscard]] bool check(std::uint32_t k, std::uint64_t lo, std::uint64_t hi,
                           const Bytes& data) const {
    if (data.size() != size(k) || get_u64(data.data()) != k) return false;
    const std::uint64_t v = get_u64(data.data() + 8);
    return v >= lo && v <= hi && data == value(k, v);
  }

  std::vector<std::uint64_t> committed;  // last acknowledged version
  std::vector<std::uint64_t> issued;     // highest version handed out
  std::vector<bool> writing;             // a SET is in flight

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;
};

struct KvTally {
  std::vector<SimTime> get_ns, set_ns;
  std::uint64_t hits = 0, misses = 0, hit_bytes = 0, set_bytes = 0;
};

// One closed-loop client: 90% GET / 10% SET over Zipf keys. A SET aimed at
// a key another client is writing becomes a GET, so each key's versions are
// written in order and every hit has one right answer range.
Task<void> kv_client_loop(sim::Simulation& sim, kv::Client& client,
                          KvModel& model, Rng rng, std::uint64_t ops,
                          KvTally& tally, RepResult& out) {
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint32_t k = model.sample(rng);
    const bool want_set = rng.uniform01() < kSetFraction;
    const std::uint64_t op_id = sim.next_op_id();
    if (want_set && !model.writing[k]) {
      const std::uint64_t v = ++model.issued[k];
      model.writing[k] = true;
      BytesPtr value = make_bytes(model.value(k, v));
      const std::uint64_t bytes = value->size();
      const SimTime t0 = sim.now();
      Status st = co_await client.set(KvModel::key(k), std::move(value),
                                      false, 0, op_id);
      tally.set_ns.push_back(sim.now() - t0);
      model.writing[k] = false;
      if (st.is_ok()) {
        model.committed[k] = v;
        tally.set_bytes += bytes;
      } else {
        fail(out, "kv: set " + KvModel::key(k) + ": " + st.to_string());
      }
      continue;
    }
    const std::uint64_t lo = model.committed[k];
    const SimTime t0 = sim.now();
    auto got = co_await client.get(KvModel::key(k), op_id);
    tally.get_ns.push_back(sim.now() - t0);
    if (got.is_ok()) {
      ++tally.hits;
      tally.hit_bytes += got.value()->size();
      if (!model.check(k, lo, model.issued[k], *got.value())) {
        fail(out, "kv: wrong value for " + KvModel::key(k));
      }
    } else if (got.code() == StatusCode::kNotFound) {
      ++tally.misses;
    } else {
      fail(out, "kv: get " + KvModel::key(k) + ": " + got.status().to_string());
    }
  }
}

// Writes every key once (version 1), coldest rank first, so the tier starts
// holding the hottest keys that fit.
Task<void> kv_preload(kv::Client& client, KvModel& model, std::uint32_t first,
                      std::uint32_t stride, RepResult& out) {
  for (std::uint32_t i = first; i < kKvKeys; i += stride) {
    const std::uint32_t k = kKvKeys - 1 - i;
    model.issued[k] = model.committed[k] = 1;
    Status st =
        co_await client.set(KvModel::key(k), make_bytes(model.value(k, 1)));
    if (!st.is_ok()) {
      fail(out, "kv: preload " + KvModel::key(k) + ": " + st.to_string());
    }
  }
}

// kv::Client straight on a 4 x 64 MiB KV tier holding ~5x its capacity:
// 32 closed-loop clients (4 per compute node), Zipf(0.99) keys, values of
// 1/4/16/64 KiB straddling the 16 KiB RDMA threshold.
RepResult run_kv(std::uint64_t seed, bool traced) {
  RepResult out;
  Phase phase(traced);
  const Clock::time_point setup_begin = Clock::now();
  ClusterConfig config;
  config.kv_memory_per_server = 64 * MiB;
  Cluster cluster(config);
  std::vector<net::NodeId> servers;
  for (std::uint32_t s = 0; s < cluster.kv_server_count(); ++s) {
    servers.push_back(cluster.kv_server(s).node());
  }
  std::vector<std::unique_ptr<kv::Client>> clients;
  for (const net::NodeId node : cluster.compute_nodes()) {
    for (std::uint32_t i = 0; i < kKvClientsPerNode; ++i) {
      clients.push_back(std::make_unique<kv::Client>(
          cluster.hub_for(kBb), node, servers, cluster.config().kv_client));
    }
  }
  KvModel model(seed);
  KvTally tally;
  std::map<std::string, double> layers;
  Clock::time_point setup_end;
  cluster.sim().spawn([](Cluster& c,
                         std::vector<std::unique_ptr<kv::Client>>& cl,
                         KvModel& mdl, std::uint64_t sd, Phase& ph, KvTally& t,
                         Clock::time_point& loaded,
                         std::map<std::string, double>& lay,
                         RepResult& rep) -> Task<void> {
    sim::Simulation& sim = c.sim();
    const auto n = static_cast<std::uint32_t>(cl.size());
    std::vector<Task<void>> preload;
    for (std::uint32_t i = 0; i < n; ++i) {
      preload.push_back(kv_preload(*cl[i], mdl, i, n, rep));
    }
    co_await sim::parallel(sim, std::move(preload));
    loaded = Clock::now();

    ph.begin(c);
    std::vector<Task<void>> loops;
    for (std::uint32_t i = 0; i < n; ++i) {
      loops.push_back(kv_client_loop(sim, *cl[i], mdl,
                                     Rng(sd * 0x9E3779B97F4A7C15ull + i + 1),
                                     kKvOps / n, t, rep));
    }
    co_await sim::parallel(sim, std::move(loops));
    ph.end(c);
    if (ph.traced()) {
      const double ops = static_cast<double>(t.get_ns.size() + t.set_ns.size());
      lay = layer_metrics(c, ph,
                          LayerInputs{nullptr, nullptr, 0, ops,
                                      static_cast<double>(t.hit_bytes +
                                                          t.set_bytes),
                                      &t.get_ns, &t.set_ns});
    }
    c.bb_master().stop_heartbeat();
  }(cluster, clients, model, seed, phase, tally, setup_end, layers, out));
  cluster.sim().run();

  out.setup_s = seconds_between(setup_begin, setup_end);
  out.host_wall_s = phase.host_s();
  const double ops =
      static_cast<double>(tally.get_ns.size() + tally.set_ns.size());
  out.attempted = static_cast<std::uint64_t>(ops);
  const double elapsed = ns_to_sec(phase.sim_ns());
  out.sim = {
      {"sim_elapsed_s", elapsed},
      {"sim_write_mbps", throughput_mbps(tally.set_bytes, phase.sim_ns())},
      {"sim_read_mbps", throughput_mbps(tally.hit_bytes, phase.sim_ns())},
      {"sim.events", phase.events()},
  };
  out.report = {
      {"kv_get_p50_us", quantile_us(tally.get_ns, 0.50)},
      {"kv_get_p99_us", quantile_us(tally.get_ns, 0.99)},
      {"kv_set_p50_us", quantile_us(tally.set_ns, 0.50)},
      {"kv_set_p99_us", quantile_us(tally.set_ns, 0.99)},
      {"kv_ops_per_s", ratio(ops, elapsed)},
      {"kv_gets", static_cast<double>(tally.get_ns.size())},
      {"kv_sets", static_cast<double>(tally.set_ns.size())},
      {"kv_hit_ratio", ratio(static_cast<double>(tally.hits),
                             static_cast<double>(tally.hits + tally.misses))},
  };
  out.layers = std::move(layers);
  return out;
}

}  // namespace

RepResult run_workload(const std::string& name, std::uint64_t seed,
                       bool traced) {
  if (name == "dfsio-async") return run_dfsio(seed, traced);
  if (name == "sort-local") return run_sort(seed, traced);
  if (name == "kv-zipf") return run_kv(seed, traced);
  RepResult out;
  fail(out, "unknown workload: " + name);
  return out;
}

}  // namespace hpcbb::perfbench
