// Differential testing: one randomized workload (create / append / read /
// stat / list / delete, with odd sizes and offsets) is replayed against all
// five storage configurations and checked against an in-memory reference
// model. Any divergence in visible file-system behaviour is a bug in that
// stack — this is the broadest correctness net in the suite.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "testing/co_assert.h"
#include "common/rng.h"
#include "common/units.h"
#include "cluster/cluster.h"
#include "sim/sync.h"

namespace hpcbb {
namespace {

using namespace hpcbb::duration;  // NOLINT
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::FsKind;
using net::NodeId;
using sim::Task;

struct FsCase {
  FsKind kind;
  bb::Scheme scheme;
  // Held inline, not as a pointer: gtest prints the parameter's raw bytes
  // into each test's name, and a pointer would make that name depend on
  // where the binary happens to be loaded.
  char label[8];
};

class DifferentialTest : public ::testing::TestWithParam<FsCase> {};

INSTANTIATE_TEST_SUITE_P(
    AllFs, DifferentialTest,
    ::testing::Values(
        FsCase{FsKind::kHdfs, bb::Scheme::kAsync, "HDFS"},
        FsCase{FsKind::kLustre, bb::Scheme::kAsync, "Lustre"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kAsync, "BBAsync"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kSync, "BBSync"},
        FsCase{FsKind::kBurstBuffer, bb::Scheme::kLocal, "BBLocal"}),
    [](const auto& param_info) { return param_info.param.label; });

ClusterConfig tiny_config(bb::Scheme scheme) {
  ClusterConfig config;
  config.compute_nodes = 4;
  config.kv_servers = 2;
  config.oss_count = 2;
  config.block_size = 4 * MiB;  // small blocks: more boundary crossings
  config.kv_memory_per_server = 96 * MiB;
  config.scheme = scheme;
  return config;
}

// Reference model: path -> (seed, size). File contents are the
// deterministic pattern stream for (seed), so the model never stores data.
struct Model {
  struct File {
    std::uint64_t seed = 0;
    std::uint64_t size = 0;
  };
  std::map<std::string, File> files;
};

Task<void> random_workload(Cluster& c, FsKind kind, std::uint64_t rng_seed,
                           int ops, Model& model) {
  fs::FileSystem& fs = c.filesystem(kind);
  Rng rng(rng_seed);
  for (int op = 0; op < ops; ++op) {
    const NodeId node = static_cast<NodeId>(
        rng.uniform(0, c.compute_nodes().size() - 1));
    const std::string path = "/d/f" + std::to_string(rng.uniform(0, 5));
    switch (rng.uniform(0, 9)) {
      case 0:
      case 1:
      case 2: {  // create + write in odd-sized appends + close
        if (model.files.contains(path)) break;
        auto writer = co_await fs.create(path, node);
        CO_ASSERT(writer.is_ok());
        const std::uint64_t seed = rng.next();
        std::uint64_t size = 0;
        const int pieces = static_cast<int>(rng.uniform(1, 5));
        for (int p = 0; p < pieces; ++p) {
          const std::uint64_t n = rng.uniform(1, 3 * MiB);
          CO_ASSERT_OK(co_await writer.value()->append(
              make_bytes(pattern_bytes(seed, size, n))));
          size += n;
        }
        CO_ASSERT_OK(co_await writer.value()->close());
        model.files[path] = Model::File{seed, size};
        break;
      }
      case 3: {  // duplicate create must fail
        if (!model.files.contains(path)) break;
        const auto result = co_await fs.create(path, node);
        CO_ASSERT(result.code() == StatusCode::kAlreadyExists);
        break;
      }
      case 4:
      case 5:
      case 6: {  // random-range read, content-verified
        const auto it = model.files.find(path);
        if (it == model.files.end()) {
          CO_ASSERT((co_await fs.open(path, node)).code() ==
                    StatusCode::kNotFound);
          break;
        }
        auto reader = co_await fs.open(path, node);
        CO_ASSERT(reader.is_ok());
        CO_ASSERT(reader.value()->size() == it->second.size);
        if (it->second.size == 0) break;
        const std::uint64_t off = rng.uniform(0, it->second.size - 1);
        const std::uint64_t len = rng.uniform(1, it->second.size - off);
        auto data = co_await reader.value()->read(off, len);
        CO_ASSERT(data.is_ok());
        CO_ASSERT(data.value().size() == len);
        CO_ASSERT(verify_pattern(it->second.seed, off, data.value()));
        break;
      }
      case 7: {  // stat
        const auto it = model.files.find(path);
        auto info = co_await fs.stat(path, node);
        if (it == model.files.end()) {
          CO_ASSERT(info.code() == StatusCode::kNotFound);
        } else {
          CO_ASSERT(info.is_ok());
          CO_ASSERT(info.value().size == it->second.size);
        }
        break;
      }
      case 8: {  // list: exact namespace agreement
        auto listed = co_await fs.list("/d", node);
        CO_ASSERT(listed.is_ok());
        std::vector<std::string> expect;
        for (const auto& [p, f] : model.files) expect.push_back(p);
        CO_ASSERT(listed.value() == expect);
        break;
      }
      default: {  // delete
        const bool existed = model.files.erase(path) > 0;
        const Status st = co_await fs.remove(path, node);
        CO_ASSERT(st.is_ok() == existed);
        if (existed) {
          CO_ASSERT((co_await fs.open(path, node)).code() ==
                    StatusCode::kNotFound);
        }
        break;
      }
    }
  }
}

TEST_P(DifferentialTest, RandomWorkloadMatchesReferenceModel) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    Cluster cluster(tiny_config(GetParam().scheme));
    Model model;
    cluster.sim().spawn(random_workload(cluster, GetParam().kind, seed,
                                        /*ops=*/60, model));
    cluster.sim().run();
  }
}

TEST_P(DifferentialTest, ReadAfterFullFlushStillVerifies) {
  // Write, drain all flushes (BB), then read everything back: the durable
  // path must serve identical bytes to the buffered path.
  Cluster cluster(tiny_config(GetParam().scheme));
  cluster.sim().spawn([](Cluster& c, FsKind kind) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(kind);
    const std::uint64_t size = 10 * MiB + 321;
    auto writer = co_await fs.create("/f", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->append(
        make_bytes(pattern_bytes(9, 0, size))));
    CO_ASSERT_OK(co_await writer.value()->close());
    if (kind == FsKind::kBurstBuffer) {
      co_await c.bb_master().wait_all_flushed();
    }
    auto reader = co_await fs.open("/f", 3);
    CO_ASSERT(reader.is_ok());
    auto data = co_await reader.value()->read(0, size);
    CO_ASSERT(data.is_ok());
    CO_ASSERT(verify_pattern(9, 0, data.value()));
  }(cluster, GetParam().kind));
  cluster.sim().run();
}

TEST_P(DifferentialTest, ManySmallFiles) {
  // Metadata-heavy: 40 small files with odd sizes, all listed and read.
  Cluster cluster(tiny_config(GetParam().scheme));
  cluster.sim().spawn([](Cluster& c, FsKind kind) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(kind);
    for (int i = 0; i < 40; ++i) {
      const std::string path = "/small/f" + std::to_string(i);
      const std::uint64_t size = 1 + static_cast<std::uint64_t>(i) * 1337;
      auto writer = co_await fs.create(
          path, static_cast<NodeId>(static_cast<std::size_t>(i) %
                                    c.compute_nodes().size()));
      CO_ASSERT(writer.is_ok());
      CO_ASSERT_OK(co_await writer.value()->append(
          make_bytes(pattern_bytes(static_cast<std::uint64_t>(i), 0, size))));
      CO_ASSERT_OK(co_await writer.value()->close());
    }
    auto listed = co_await fs.list("/small", 0);
    CO_ASSERT(listed.is_ok());
    CO_ASSERT(listed.value().size() == 40u);
    for (int i = 0; i < 40; ++i) {
      const std::string path = "/small/f" + std::to_string(i);
      const std::uint64_t size = 1 + static_cast<std::uint64_t>(i) * 1337;
      auto reader = co_await fs.open(path, 1);
      CO_ASSERT(reader.is_ok());
      auto data = co_await reader.value()->read(0, size);
      CO_ASSERT(data.is_ok());
      CO_ASSERT(verify_pattern(static_cast<std::uint64_t>(i), 0, data.value()));
    }
  }(cluster, GetParam().kind));
  cluster.sim().run();
}

TEST_P(DifferentialTest, EmptyFile) {
  Cluster cluster(tiny_config(GetParam().scheme));
  cluster.sim().spawn([](Cluster& c, FsKind kind) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(kind);
    auto writer = co_await fs.create("/empty", 0);
    CO_ASSERT(writer.is_ok());
    CO_ASSERT_OK(co_await writer.value()->close());
    auto info = co_await fs.stat("/empty", 1);
    CO_ASSERT(info.is_ok());
    CO_ASSERT(info.value().size == 0u);
    auto reader = co_await fs.open("/empty", 2);
    CO_ASSERT(reader.is_ok());
    CO_ASSERT(reader.value()->size() == 0u);
  }(cluster, GetParam().kind));
  cluster.sim().run();
}

TEST_P(DifferentialTest, ExactBlockMultipleSizes) {
  // Sizes landing exactly on block and chunk boundaries — historically
  // where off-by-one bugs live.
  Cluster cluster(tiny_config(GetParam().scheme));
  cluster.sim().spawn([](Cluster& c, FsKind kind) -> Task<void> {
    fs::FileSystem& fs = c.filesystem(kind);
    const std::uint64_t block = c.config().block_size;
    int idx = 0;
    for (const std::uint64_t size :
         {block, 2 * block, block - 1, block + 1, 1 * MiB, 1 * MiB + 1}) {
      const std::string path = "/edge/f" + std::to_string(idx++);
      auto writer = co_await fs.create(path, 0);
      CO_ASSERT(writer.is_ok());
      CO_ASSERT_OK(co_await writer.value()->append(
          make_bytes(pattern_bytes(size, 0, size))));
      CO_ASSERT_OK(co_await writer.value()->close());
      auto reader = co_await fs.open(path, 1);
      CO_ASSERT(reader.is_ok());
      CO_ASSERT(reader.value()->size() == size);
      auto data = co_await reader.value()->read(0, size);
      CO_ASSERT(data.is_ok());
      CO_ASSERT(verify_pattern(size, 0, data.value()));
    }
  }(cluster, GetParam().kind));
  cluster.sim().run();
}

}  // namespace
}  // namespace hpcbb
