// Shared helpers for the figure-reproduction benchmarks. Each binary
// regenerates one table/figure from the paper's evaluation (DESIGN.md §4):
// it builds fresh clusters per data point, runs the workload in simulated
// time, and prints the series the paper reports.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "common/byte_pool.h"
#include "common/strings.h"
#include "common/units.h"
#include "mapred/workloads.h"
#include "sim/sync.h"

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

// Spawn the task and drive the simulation to quiescence.
inline void run_to_completion(Cluster& cluster, sim::Task<void> task) {
  cluster.sim().spawn(std::move(task));
  cluster.sim().run();
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

// Machine-readable benchmark results. Every data point the bench prints is
// also recorded here; write() emits one JSON document per binary (schema
// hpcbb.bench.v1) so plots and regression diffs never have to scrape
// stdout. Output lands in "<id>_result.json" in the working directory, or
// under $HPCBB_BENCH_OUT if that directory variable is set. write() also
// appends the process's host wall time and peak RSS as the "host.wall_s"
// and "host.peak_rss_mb" series, and its large reads served from a spare
// buffer and served fresh as "host.buffer_reuses" and "host.buffer_fresh"
// (common/byte_pool.h): informational, never pinned by a gate.
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
  void add(const std::string& series, std::uint64_t x, double value) {
    add(series, std::to_string(x), value);
  }

  // Returns the path written, or an empty string on I/O failure.
  std::string write() const {
    std::string path = id_ + "_result.json";
    if (const char* dir = std::getenv("HPCBB_BENCH_OUT")) {
      path = std::string(dir) + "/" + path;
    }
    std::vector<Point> points = points_;
    points.push_back(Point{"host.wall_s", "process",
                           std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               kProcessStart)
                               .count()});
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in KiB on Linux
    points.push_back(Point{"host.peak_rss_mb", "process",
                           static_cast<double>(usage.ru_maxrss) / 1024.0});
    points.push_back(Point{"host.buffer_reuses", "process",
                           static_cast<double>(buffer_reuses())});
    points.push_back(Point{"host.buffer_fresh", "process",
                           static_cast<double>(buffer_fresh())});
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

// ---- perf-regression gate (`--gate`) ----
// With --gate on the command line, a bench verifies its freshly-written
// result against the committed baseline (bench/baselines/<id>.json) via
// tools/bench_gate.py and exits non-zero on a regression outside the
// baseline's tolerances. $HPCBB_ROOT overrides the repo root used to locate
// the script and baselines (default: the current directory).

inline bool gate_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gate") return true;
  }
  return false;
}

// Runs the gate check for a result file already on disk; returns main()'s
// exit code (0 = within tolerance).
inline int gate_result(const std::string& id, const std::string& result_path) {
  const char* root = std::getenv("HPCBB_ROOT");
  const std::string base = root != nullptr ? root : ".";
  const std::string cmd = "python3 \"" + base + "/tools/bench_gate.py\""
                          " check \"" + base + "/bench/baselines/" + id +
                          ".json\" \"" + result_path + "\"";
  const int rc = std::system(cmd.c_str());
  return rc == 0 ? 0 : 1;
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
