// Causal op tracing end to end: one BB-Async block write must produce spans
// in the client (bb), KV store (kv), and Lustre (lustre) layers that all
// share a single op_id, and the Chrome trace export must carry that id.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "burstbuffer/filesystem.h"
#include "burstbuffer/master.h"
#include "common/units.h"
#include "kvstore/server.h"
#include "lustre/mds.h"
#include "lustre/oss.h"
#include "sim/trace.h"
#include "testing/co_assert.h"

namespace hpcbb::bb {
namespace {

using net::NodeId;
using sim::Simulation;
using sim::Task;

// Minimal BB-Async deployment: 0..3 compute, 4 master, 5 MDS, 6..7 OSS,
// 8..9 KV servers — the same layout as the burst-buffer tests.
struct TraceRig {
  static constexpr NodeId kMasterNode = 4;
  static constexpr NodeId kMdsNode = 5;

  Simulation sim;
  sim::TraceRecorder trace{sim};
  net::Fabric fabric{sim, 10, net::FabricParams{}};
  net::Transport transport{fabric,
                           net::transport_preset(net::TransportKind::kRdma)};
  net::RpcHub hub{transport};
  std::vector<std::unique_ptr<lustre::Oss>> osses;
  std::unique_ptr<lustre::Mds> mds;
  std::vector<std::unique_ptr<kv::Server>> kv_servers;
  std::vector<NodeId> kv_nodes;
  std::unique_ptr<Master> master;
  std::unique_ptr<BurstBufferFileSystem> fs;

  TraceRig() {
    sim.set_trace(&trace);
    for (const NodeId n : {6u, 7u}) {
      osses.push_back(
          std::make_unique<lustre::Oss>(hub, n, lustre::OssParams{}));
    }
    std::vector<lustre::OstTarget> targets;
    for (const NodeId n : {6u, 7u}) {
      for (std::uint32_t t = 0; t < 2; ++t) targets.push_back({n, t});
    }
    mds = std::make_unique<lustre::Mds>(hub, kMdsNode, targets,
                                        lustre::MdsParams{});
    for (const NodeId n : {8u, 9u}) {
      kv::ServerParams sp;
      sp.store.memory_budget = 64 * MiB;
      sp.store.shard_count = 2;
      kv_servers.push_back(std::make_unique<kv::Server>(hub, n, sp));
      kv_nodes.push_back(n);
    }
    CommonParams common;
    common.block_size = 8 * MiB;
    common.chunk_size = 1 * MiB;
    MasterParams mp;
    mp.flowctl.capacity_bytes = 128 * MiB;
    master = std::make_unique<Master>(hub, kMasterNode, kv_nodes, kMdsNode,
                                      common, mp);
    BbFsParams fp;
    const std::map<NodeId, NodeAgent*> no_agents;
    fs = std::make_unique<BurstBufferFileSystem>(
        hub, kMasterNode, kv_nodes, kMdsNode, no_agents, common, fp);
  }
};

TEST(OpTracingTest, BlockWriteSpansThreeLayersWithOneOpId) {
  TraceRig rig;
  rig.sim.spawn([](TraceRig& r) -> Task<void> {
    auto w = co_await r.fs->create("/traced", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(
        co_await w.value()->append(make_bytes(pattern_bytes(7, 0, 4 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();

  // Group the trace by op_id and find the categories each op touched.
  std::map<std::uint64_t, std::set<std::string>> categories_by_op;
  for (const sim::TraceSpan& span : rig.trace.spans()) {
    if (span.op_id != 0) categories_by_op[span.op_id].insert(span.category);
  }
  ASSERT_FALSE(categories_by_op.empty());
  bool found = false;
  for (const auto& [op_id, categories] : categories_by_op) {
    if (categories.contains("bb") && categories.contains("kv") &&
        categories.contains("lustre")) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found)
      << "no op_id spans all of bb/kv/lustre; ops seen: "
      << categories_by_op.size();

  // The causal id survives into the Chrome-trace export.
  EXPECT_NE(rig.trace.to_chrome_json().find("\"args\":{\"op_id\":"),
            std::string::npos);
}

TEST(OpTracingTest, DistinctWritesGetDistinctOpIds) {
  TraceRig rig;
  rig.sim.spawn([](TraceRig& r) -> Task<void> {
    for (const char* path : {"/a", "/b"}) {
      auto w = co_await r.fs->create(path, 0);
      CO_ASSERT_OK(w);
      CO_ASSERT_OK(co_await w.value()->append(
          make_bytes(pattern_bytes(3, 0, 1 * MiB))));
      CO_ASSERT_OK(co_await w.value()->close());
    }
    co_await r.master->wait_all_flushed();
  }(rig));
  rig.sim.run();

  std::set<std::uint64_t> write_ops;
  for (const sim::TraceSpan& span : rig.trace.spans()) {
    if (span.category == "bb" && span.op_id != 0 &&
        span.name.starts_with("write.")) {
      write_ops.insert(span.op_id);
    }
  }
  EXPECT_EQ(write_ops.size(), 2u);
}

}  // namespace
}  // namespace hpcbb::bb
