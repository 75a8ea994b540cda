// The harness of the figure-reproduction benchmarks. Each binary regenerates
// one table/figure from the paper's evaluation (DESIGN.md §4): it declares
// the columns of its result table, runs each case (a ClusterConfig plus a
// workload) on a fresh cluster in simulated time, and prints and records one
// row per data point.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_pool.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/units.h"
#include "kvstore/client.h"
#include "kvstore/server.h"
#include "mapred/records.h"
#include "mapred/workloads.h"

namespace hpcbb::bench {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;

struct SystemCase {
  const char* label;
  FsKind kind;
  bb::Scheme scheme;
};

// The paper's comparison set: two baselines and the three proposed schemes.
inline std::vector<SystemCase> all_systems() {
  return {
      {"HDFS", FsKind::kHdfs, bb::Scheme::kAsync},
      {"Lustre", FsKind::kLustre, bb::Scheme::kAsync},
      {"BB-Async", FsKind::kBurstBuffer, bb::Scheme::kAsync},
      {"BB-Sync", FsKind::kBurstBuffer, bb::Scheme::kSync},
      {"BB-Local", FsKind::kBurstBuffer, bb::Scheme::kLocal},
  };
}

inline ClusterConfig default_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.scheme = scheme;
  return config;
}

inline void print_header(const char* figure, const char* title,
                         const char* claim) {
  std::printf("== %s: %s ==\n", figure, title);
  std::printf("paper claim: %s\n", claim);
}

inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// When the bench process started, taken during static initialisation.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// Machine-readable benchmark results: every number a bench prints is also
// recorded here (Table does both in one call); write() emits one JSON
// document per binary (schema hpcbb.bench.v1) so plots and regression diffs
// never have to scrape stdout. Output lands in "<id>_result.json" in the
// working directory, or under $HPCBB_BENCH_OUT if that directory variable is
// set. write() also appends the process's host wall time and peak RSS as the
// "host.wall_s" and "host.peak_rss_mb" series, and its large reads served
// from a spare buffer and served fresh as "host.buffer_reuses" and
// "host.buffer_fresh" (common/byte_pool.h): informational, never pinned by
// a gate.
class JsonResult {
 public:
  JsonResult(std::string id, std::string title)
      : id_(std::move(id)), title_(std::move(title)) {}

  [[nodiscard]] const std::string& id() const noexcept { return id_; }

  // One data point: `series` names the curve (e.g. "RDMA-set"), `x` the
  // position along it (value size, node count, scheme name, ...).
  void add(const std::string& series, const std::string& x, double value) {
    points_.push_back(Point{series, x, value});
  }

  // Returns the path written, or an empty string on I/O failure.
  std::string write() const {
    std::string path = id_ + "_result.json";
    if (const char* dir = std::getenv("HPCBB_BENCH_OUT")) {
      path = std::string(dir) + "/" + path;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KiB on Linux
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - kProcessStart;
    std::vector<Point> points = points_;
    for (const auto& [series, value] :
         {std::pair{"host.wall_s", wall.count()},
          std::pair{"host.peak_rss_mb",
                    static_cast<double>(usage.ru_maxrss) / 1024.0},
          std::pair{"host.buffer_reuses",
                    static_cast<double>(buffer_reuses())},
          std::pair{"host.buffer_fresh",
                    static_cast<double>(buffer_fresh())}}) {
      points.push_back(Point{series, "process", value});
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return {};
    out << "{\n  \"schema\": \"hpcbb.bench.v1\",\n  \"bench\": \""
        << escape(id_) << "\",\n  \"title\": \"" << escape(title_)
        << "\",\n  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) out << ",";
      char value[32];
      std::snprintf(value, sizeof value, "%.6g", points[i].value);
      out << "\n    {\"series\": \"" << escape(points[i].series)
          << "\", \"x\": \"" << escape(points[i].x) << "\", \"value\": "
          << value << "}";
    }
    out << "\n  ]\n}\n";
    if (!out.flush()) return {};
    std::printf("results: %zu points written to %s\n", points.size(),
                path.c_str());
    return path;
  }

 private:
  struct Point {
    std::string series, x;
    double value = 0;
  };

  static std::string escape(const std::string& in) {
    std::string out;
    for (const char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string id_;
  std::string title_;
  std::vector<Point> points_;
};

// Prints a figure's header and returns its result, recorded under the
// figure's id ("A1 (ablation)" -> "a1") and the same title.
inline JsonResult figure(const std::string& name, const char* title,
                         const char* claim) {
  print_header(name.c_str(), title, claim);
  std::string id = name.substr(0, name.find(' '));
  for (char& c : id) c = static_cast<char>(std::tolower(c));
  return JsonResult(id, title);
}

// ---- the result table ----

// One column of a result table, declared once: its printed header, the JSON
// series each row's value is recorded under, and how the value prints. A
// column with an empty header is recorded but not printed.
struct Column {
  std::string header;
  std::string series;           // "{row}" stands for the row's label
  std::string format = "%.0f";  // printf format of value / unit
  double unit = 1;
  std::string (*text)(double) = nullptr;  // if set, prints the value instead
  std::string x = "{row}";                // the point's x
};

// The value of a column that does not apply to a row.
inline constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

inline std::string bytes_text(double v) {
  return format_bytes(static_cast<std::uint64_t>(v));
}
inline std::string duration_text(double v) {
  return format_duration_ns(static_cast<std::uint64_t>(v));
}
inline std::string percent_text(double v) {
  char out[32];
  std::snprintf(out, sizeof out, "%.0f%%", 100.0 * v);
  return out;
}
inline std::string flag_text(double v) { return v != 0 ? "yes" : "NO"; }

// Prints a result table and records its values: row() prints one line and
// adds one point per column, in declaration order. A NaN value prints "-"
// and records nothing (a column that does not apply to the row).
class Table {
 public:
  // Prints a blank line, `title` on a line of its own if given, and the
  // header line.
  Table(JsonResult& result, const std::string& row_header,
        std::vector<Column> columns, const std::string& title = {})
      : result_(&result),
        columns_(std::move(columns)),
        label_width_(std::max<int>(14, static_cast<int>(row_header.size()))) {
    std::printf("\n");
    if (!title.empty()) std::printf("%s\n", title.c_str());
    std::printf("%-*s", label_width_, row_header.c_str());
    for (const Column& column : columns_) {
      if (column.header.empty()) continue;
      std::printf("  %*s", width(column), column.header.c_str());
    }
    std::printf("\n");
  }

  void row(const std::string& label, const std::vector<double>& values,
           const std::string& note = {}) {
    if (values.size() != columns_.size()) {
      throw std::logic_error("table row " + label + ": one value per column");
    }
    std::printf("%-*s", label_width_, label.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Column& column = columns_[i];
      const double value = values[i];
      if (!std::isnan(value)) {
        result_->add(fill(column.series, label), fill(column.x, label), value);
      }
      if (!column.header.empty()) {
        std::printf("  %*s", width(column), cell(column, value).c_str());
      }
    }
    if (!note.empty()) std::printf("   %s", note.c_str());
    std::printf("\n");
  }

 private:
  static int width(const Column& column) {
    return std::max<int>(8, static_cast<int>(column.header.size()));
  }
  static std::string cell(const Column& column, double value) {
    if (std::isnan(value)) return "-";
    if (column.text != nullptr) return column.text(value);
    char out[64];
    std::snprintf(out, sizeof out, column.format.c_str(), value / column.unit);
    return out;
  }
  static std::string fill(std::string pattern, const std::string& label) {
    const std::size_t at = pattern.find("{row}");
    if (at != std::string::npos) pattern.replace(at, 5, label);
    return pattern;
  }

  JsonResult* result_;
  std::vector<Column> columns_;
  int label_width_;
};

// A column whose value is read from each row's outcome.
template <class Run>
struct Stat {
  Column column;
  std::function<double(const Run&)> read;
};

// A column that reads the outcome's field `m`.
template <class Run, class T, class C>
Stat<Run> member(Column column, T C::*m) {
  return {std::move(column),
          [m](const Run& run) { return static_cast<double>(run.*m); }};
}

// A Table whose columns read each row's values from one outcome.
template <class Run>
class OutcomeTable {
 public:
  OutcomeTable(JsonResult& result, const std::string& row_header,
               std::vector<Stat<Run>> stats, const std::string& title = {})
      : stats_(std::move(stats)),
        table_(result, row_header, columns(stats_), title) {}

  void row(const std::string& label, const Run& run,
           const std::string& note = {}) {
    std::vector<double> values;
    for (const Stat<Run>& stat : stats_) values.push_back(stat.read(run));
    table_.row(label, values, note);
  }

 private:
  static std::vector<Column> columns(const std::vector<Stat<Run>>& stats) {
    std::vector<Column> out;
    for (const Stat<Run>& stat : stats) out.push_back(stat.column);
    return out;
  }

  std::vector<Stat<Run>> stats_;
  Table table_;
};

// One column per system of the paper's comparison set, each recorded as
// "<system><suffix>".
inline std::vector<Column> system_columns(const std::string& suffix,
                                          const std::string& format) {
  std::vector<Column> columns;
  for (const SystemCase& system : all_systems()) {
    columns.push_back({system.label, system.label + suffix, format});
  }
  return columns;
}

// ---- cases ----

// The metrics a case's cluster ended with; an absent metric reads 0.
struct Metrics {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  [[nodiscard]] double counter(const std::string& name) const {
    return static_cast<double>(find(counters, name));
  }
  // The sum of the counters whose names start with `prefix`.
  [[nodiscard]] double counter_sum(std::string_view prefix) const {
    double sum = 0;
    for (const auto& [name, value] : counters) {
      if (name.starts_with(prefix)) sum += static_cast<double>(value);
    }
    return sum;
  }
  [[nodiscard]] GaugeSnapshot gauge(const std::string& name) const {
    return find(gauges, name);
  }
  [[nodiscard]] HistogramSnapshot histogram(const std::string& name) const {
    return find(histograms, name);
  }

 private:
  template <class V>
  static V find(const std::map<std::string, V>& metrics,
                const std::string& name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? V{} : it->second;
  }
};

// What a case measured: its workload fills the fields it measures, and
// run_case adds the metrics the cluster ended with.
struct Outcome {
  bool write_ok = false;
  double write_mbps = 0;
  sim::SimTime write_ns = 0;
  double read_mbps = 0;
  std::uint64_t blocks_lost = 0;
  std::uint64_t blocks_recovered = 0;
  std::uint32_t files_readable = 0;
  std::uint64_t silent_corruptions = 0;  // reads that returned wrong bytes
  sim::SimTime generate_ns = 0;          // writing the record files
  double job_s = 0;                      // the MapReduce job's makespan
  double locality = 0;
  bool sorted = false;
  Metrics metrics;
};

// Runs one case: builds the cluster, spawns `workload(cluster, outcome)`,
// drives the simulation to quiescence, lets `after(cluster, outcome)` read
// what the quiesced cluster holds, and returns the outcome with the
// cluster's metrics. Anything that records the cluster's spans must be
// declared before this call, so that it outlives the cluster.
template <class Out = Outcome, class Workload, class After>
Out run_case(const ClusterConfig& config, Workload&& workload,
             After&& after) {
  Out out;
  Cluster cluster(config);
  cluster.sim().spawn(workload(cluster, out));
  cluster.sim().run();
  after(cluster, out);
  const MetricRegistry& metrics = cluster.sim().metrics();
  out.metrics = {metrics.counters(), metrics.gauges(), metrics.histograms()};
  return out;
}

template <class Out = Outcome, class Workload>
Out run_case(const ClusterConfig& config, Workload&& workload) {
  return run_case<Out>(config, workload, [](Cluster&, Out&) {});
}

// A bare KV tier on one fabric, for the KV microbenchmarks (F1, F2): client
// nodes 0 to clients-1, then the servers, each with `server_memory` bytes.
struct KvRig {
  sim::Simulation sim;
  net::Fabric fabric;
  net::Transport transport;
  net::RpcHub hub;
  std::vector<std::unique_ptr<kv::Server>> servers;
  std::vector<std::unique_ptr<kv::Client>> clients;

  KvRig(net::TransportKind kind, std::uint32_t n_clients,
        std::uint32_t n_servers, std::uint64_t server_memory)
      : fabric(sim, n_clients + n_servers, net::FabricParams{}),
        transport(fabric, net::transport_preset(kind)),
        hub(transport) {
    kv::ServerParams params;
    params.store.memory_budget = server_memory;
    std::vector<net::NodeId> nodes;
    for (net::NodeId s = n_clients; s < n_clients + n_servers; ++s) {
      servers.push_back(std::make_unique<kv::Server>(hub, s, params));
      nodes.push_back(s);
    }
    for (net::NodeId c = 0; c < n_clients; ++c) {
      clients.push_back(std::make_unique<kv::Client>(hub, c, nodes));
    }
  }
};

// ---- shared workloads ----
// A workload coroutine passes its parameter structs as named locals, never
// as braced temporaries inside a co_await expression: GCC 12 destroys such
// a temporary twice.

// DFSIO write: fills write_ok, write_mbps and write_ns.
inline sim::Task<void> dfsio_write(Cluster& c, FsKind kind,
                                   mapred::DfsioParams params, Outcome& out) {
  auto result = co_await mapred::dfsio_write(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), params);
  out.write_ok = result.is_ok();
  if (!result.is_ok()) co_return;
  out.write_mbps = result.value().aggregate_mbps;
  out.write_ns = result.value().elapsed_ns;
}

// DFSIO write, then, if it succeeded, DFSIO read: adds read_mbps.
inline sim::Task<void> dfsio_write_read(Cluster& c, FsKind kind,
                                        mapred::DfsioParams params,
                                        Outcome& out) {
  co_await dfsio_write(c, kind, params, out);
  if (!out.write_ok) co_return;
  auto result = co_await mapred::dfsio_read(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), params);
  if (result.is_ok()) out.read_mbps = result.value().aggregate_mbps;
}

// Writes the record files of `gen` and runs `job` over them into `out_dir`:
// fills generate_ns, job_s and locality. False if a step failed.
inline sim::Task<bool> record_job(Cluster& c, FsKind kind,
                                  mapred::GenerateParams gen, mapred::Job& job,
                                  std::string out_dir, Outcome& out) {
  auto generated = co_await mapred::generate_records_input(
      c.filesystem(kind), c.hub_for(kind), c.compute_nodes(), gen);
  if (!generated.is_ok()) co_return false;
  out.generate_ns = generated.value().elapsed_ns;
  std::vector<std::string> inputs;
  for (std::uint32_t i = 0; i < gen.files; ++i) {
    inputs.push_back(gen.dir + "/part-" + std::to_string(i));
  }
  auto runner = c.make_runner(kind);
  auto stats = co_await runner->run(job, inputs, out_dir);
  if (!stats.is_ok()) co_return false;
  out.job_s = ns_to_sec(stats.value().makespan_ns);
  out.locality = stats.value().locality_fraction();
  co_return true;
}

struct SortParams {
  std::uint32_t files = 8;
  std::uint64_t records_per_file = 0;
  std::uint32_t reducers = 16;
  double cpu_scale = 1.0;
  std::string out_dir = "/out/sort";
};

// Sorts freshly generated records and spot-checks the order of the first
// output partition (sorted).
inline sim::Task<void> sort(Cluster& c, FsKind kind, SortParams params,
                            Outcome& out) {
  mapred::GenerateParams gen;
  gen.files = params.files;
  gen.records_per_file = params.records_per_file;
  mapred::SortJob job(params.reducers, params.cpu_scale);
  if (!co_await record_job(c, kind, gen, job, params.out_dir, out)) co_return;
  const std::string first_part = params.out_dir + "/part-0";
  auto reader =
      co_await c.filesystem(kind).open(first_part, c.compute_nodes()[0]);
  if (!reader.is_ok()) co_return;
  auto data = co_await reader.value()->read(0, reader.value()->size());
  out.sorted = data.is_ok() && mapred::records_sorted(data.value());
}

// How a verified read-back walks the DFSIO files.
struct Readback {
  std::uint32_t node_shift = 0;  // file i is read on compute node i + shift
  bool first_failure_ends_file = true;
};

// Reads every DFSIO file of `params` back from the burst buffer in 4 MiB
// reads and verifies the pattern. A file counts as readable only if all of
// it reads and verifies. Fills files_readable, silent_corruptions (reads
// that returned OK with wrong bytes) and read_mbps over the verified bytes.
inline sim::Task<void> verified_readback(Cluster& c,
                                         mapred::DfsioParams params,
                                         Readback how, Outcome& out) {
  const auto kind = FsKind::kBurstBuffer;
  const std::vector<net::NodeId>& nodes = c.compute_nodes();
  const sim::SimTime read_start = c.sim().now();
  std::uint64_t read_bytes = 0;
  for (std::uint32_t i = 0; i < params.files; ++i) {
    const std::string path = params.dir + "/io_file_" + std::to_string(i);
    auto reader = co_await c.filesystem(kind).open(
        path, nodes[(i + how.node_shift) % nodes.size()]);
    if (!reader.is_ok()) continue;
    bool all_ok = true;
    const std::uint64_t size = reader.value()->size();
    for (std::uint64_t off = 0;
         off < size && (all_ok || !how.first_failure_ends_file);
         off += 4 * MiB) {
      const std::uint64_t len = std::min<std::uint64_t>(4 * MiB, size - off);
      auto data = co_await reader.value()->read(off, len);
      if (!data.is_ok()) {
        all_ok = false;  // a loud failure, e.g. kDataLoss on a lost block
        continue;
      }
      if (!verify_pattern(fnv1a(path), off, data.value())) {
        all_ok = false;
        ++out.silent_corruptions;
        continue;
      }
      read_bytes += len;
    }
    if (all_ok) ++out.files_readable;
  }
  const sim::SimTime read_ns = c.sim().now() - read_start;
  out.read_mbps = read_ns == 0
                      ? 0
                      : static_cast<double>(read_bytes) / MiB /
                            (static_cast<double>(read_ns) / duration::sec);
}

// F3 and F4: `workload` on every system over 8 files of 32, 64 and
// 128 MiB, printed as MB/s (`mbps`) per system and BB-Async's speedup over
// the two baselines.
template <class Workload>
void dfsio_sweep(JsonResult& result, Workload workload,
                 double Outcome::*mbps) {
  constexpr std::uint32_t kFiles = 8;
  std::vector<Column> columns = system_columns("-mbps", "%.0f");
  columns.push_back({"BB-Async/HDFS", "BB-Async-vs-HDFS", "%.2fx"});
  columns.push_back({"BB-Async/Lustre", "BB-Async-vs-Lustre", "%.2fx"});
  Table table(result, "dataset", columns);
  for (const std::uint64_t file_size : {32 * MiB, 64 * MiB, 128 * MiB}) {
    const mapred::DfsioParams params{.files = kFiles, .file_size = file_size};
    std::vector<double> row;  // in all_systems() order
    for (const SystemCase& system : all_systems()) {
      const Outcome o = run_case(
          default_config(system.scheme), [&](Cluster& c, Outcome& out) {
            return workload(c, system.kind, params, out);
          });
      row.push_back(o.*mbps);
    }
    row.push_back(ratio(row[2], row[0]));  // BB-Async over HDFS
    row.push_back(ratio(row[2], row[1]));  // BB-Async over Lustre
    table.row(format_bytes(kFiles * file_size), row);
  }
}

// ---- perf-regression gate (`--gate`) ----
// With --gate on the command line, a bench verifies its freshly-written
// result against the committed baseline (bench/baselines/<id>.json) via
// tools/bench_gate.py and exits non-zero on a regression outside the
// baseline's tolerances. $HPCBB_ROOT overrides the repo root used to locate
// the script and baselines (default: the current directory).

inline bool gate_requested(int argc, char** argv) {
  return std::find(argv + 1, argv + argc, std::string_view("--gate")) !=
         argv + argc;
}

// Runs the gate check for a result file already on disk; returns main()'s
// exit code (0 = within tolerance).
inline int gate_result(const std::string& id, const std::string& result_path) {
  const char* root = std::getenv("HPCBB_ROOT");
  const std::string base = root != nullptr ? root : ".";
  const std::string cmd = "python3 \"" + base + "/tools/bench_gate.py\""
                          " check \"" + base + "/bench/baselines/" + id +
                          ".json\" \"" + result_path + "\"";
  return std::system(cmd.c_str()) == 0 ? 0 : 1;
}

// Standard bench epilogue: write the JSON result, then gate it if --gate
// was passed. Returns main()'s exit code.
inline int finish(const JsonResult& result, int argc, char** argv) {
  const std::string path = result.write();
  if (path.empty()) {
    std::fprintf(stderr, "cannot write %s result file\n", result.id().c_str());
    return 1;
  }
  if (!gate_requested(argc, argv)) return 0;
  return gate_result(result.id(), path);
}

}  // namespace hpcbb::bench
