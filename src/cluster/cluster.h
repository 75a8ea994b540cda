// Experiment harness: builds a complete simulated HPC cluster — compute
// nodes, HDFS (NameNode + per-node DataNodes over a sockets transport),
// Lustre (MDS + OSS/OSTs over native IB), and the RDMA-Memcached burst
// buffer (KV servers + master + node agents) — on one shared fabric, and
// hands out fs::FileSystem implementations plus failure-injection and
// metric hooks.
//
// Node id layout:
//   [0, compute_nodes)                 compute nodes (DataNode + BB agent)
//   compute_nodes + 0                  HDFS NameNode
//   compute_nodes + 1                  BB master
//   compute_nodes + 2                  Lustre MDS
//   compute_nodes + 3 ..               OSS nodes, then KV server nodes
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "burstbuffer/filesystem.h"
#include "burstbuffer/master.h"
#include "burstbuffer/mdlog.h"
#include "faults/injector.h"
#include "flowctl/controller.h"
#include "hdfs/client.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "integrity/scrubber.h"
#include "kvstore/server.h"
#include "lustre/client.h"
#include "lustre/mds.h"
#include "lustre/oss.h"
#include "mapred/job.h"
#include "net/rpc.h"
#include "sim/simulation.h"

namespace hpcbb::cluster {

enum class FsKind { kHdfs, kLustre, kBurstBuffer };

std::string_view to_string(FsKind kind) noexcept;

struct ClusterConfig {
  std::uint32_t compute_nodes = 8;
  std::uint32_t kv_servers = 4;
  std::uint32_t oss_count = 4;
  std::uint32_t osts_per_oss = 2;

  net::FabricParams fabric;
  // Stock Hadoop speaks sockets (IPoIB on an IB cluster); Lustre's LNET and
  // the burst buffer use native verbs.
  net::TransportKind hdfs_transport = net::TransportKind::kIpoib;
  net::TransportKind fast_transport = net::TransportKind::kRdma;

  // SDSC-Gordon-class compute nodes carry a local SSD (the paper's testbed).
  storage::DeviceParams node_disk = storage::ssd_preset();
  std::uint64_t ramdisk_bytes = 2 * GiB;
  lustre::OssParams oss;
  lustre::MdsParams mds;

  std::uint64_t kv_memory_per_server = 512 * MiB;
  std::uint32_t kv_shards = 4;
  // Burst-buffer servers journal ingested data to their local SSDs
  // (hybrid-Memcached persistence): write ingest is SSD-bound, reads are
  // RAM-bound — the asymmetry behind the paper's 1.5x write vs 8x read.
  bool kv_persist_writes = true;
  storage::DeviceParams kv_journal = storage::DeviceParams{
      .kind = storage::MediaKind::kSsd,
      .read_bytes_per_sec = 700 * MB,   // enterprise-class SSD per server
      .write_bytes_per_sec = 600 * MB,
      .seek_ns = 50 * duration::us,
      .capacity_bytes = 400 * GiB};

  bb::Scheme scheme = bb::Scheme::kAsync;
  // Watermarks / pacing for the burst buffer's flow-control subsystem
  // (capacity_bytes is derived from kv_memory_per_server * kv_servers).
  flowctl::FlowControlParams bb_flowctl;
  // Extension: promote Lustre-fallback reads back into the buffer (read
  // cache behaviour). Off by default to match the paper's base design.
  bool bb_promote_on_read = false;

  // Scaled-down experiment geometry (EXPERIMENTS.md, "Scaling"): paper-size
  // 128 MiB blocks and multi-GB files shrink together by ~4x so runs fit
  // the host; ratios (block/chunk/buffer/file) are preserved.
  std::uint64_t block_size = 32 * MiB;
  std::uint64_t chunk_size = 1 * MiB;

  std::uint32_t hdfs_replication = 3;
  mapred::MrParams mapred;

  // ---- resilience ----
  // Retry policy installed on the fast (verbs) hub, covering KV, Lustre and
  // burst-buffer RPCs. Default is a no-op (single attempt, no timeout), so
  // baseline runs are byte-identical; HDFS keeps stock sockets behaviour.
  net::RetryPolicy retry;
  // KV client behaviour for BB writers/readers/flushers: ring failover
  // during a server outage, and replica write fan-out / replica reads when
  // replication_factor > 1 (which also arms the master's recovery
  // subsystem). Must stay consistent across all BB clients so replicated
  // and failover writes land where reads look.
  kv::ClientParams kv_client;
  // BB master failure detector over the KV servers; 0 disables it.
  sim::SimTime bb_heartbeat_interval_ns = 0;
  std::uint32_t bb_suspect_after = 2;
  std::uint32_t bb_dead_after = 4;
  // Deterministic fault injection (disabled by default). Crash targets are
  // the KV servers; limp targets are the OSS devices and KV journal SSDs;
  // corruption targets are the KV stores, OSS devices, and DataNode disks.
  faults::InjectorParams faults;
  // Background integrity scrubber over the burst buffer (0 interval = off).
  integrity::ScrubParams bb_scrub;
  // Master metadata durability: write-ahead journal + checkpoints in the KV
  // tier's reserved `!md:` range (bb.md.* keys). With journaling on the
  // injector's faults.master.* schedule can crash and restart the BB master
  // with zero metadata loss; off by default (seed behaviour).
  bb::MdParams bb_md;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& compute_nodes() const noexcept {
    return compute_nodes_;
  }

  // The shared file-system instances (all stacks coexist on the fabric).
  [[nodiscard]] fs::FileSystem& filesystem(FsKind kind);
  [[nodiscard]] net::RpcHub& hub_for(FsKind kind) noexcept {
    return kind == FsKind::kHdfs ? *hdfs_hub_ : *fast_hub_;
  }

  // A MapReduce runner whose shuffle travels on the same transport as the
  // chosen storage stack.
  [[nodiscard]] std::unique_ptr<mapred::JobRunner> make_runner(FsKind kind);

  // Component access for failure injection and measurements.
  [[nodiscard]] hdfs::NameNode& namenode() noexcept { return *namenode_; }
  [[nodiscard]] hdfs::DataNode& datanode(std::uint32_t i) noexcept {
    return *datanodes_[i];
  }
  [[nodiscard]] kv::Server& kv_server(std::uint32_t i) noexcept {
    return *kv_servers_[i];
  }
  [[nodiscard]] std::uint32_t kv_server_count() const noexcept {
    return static_cast<std::uint32_t>(kv_servers_.size());
  }
  [[nodiscard]] bb::Master& bb_master() noexcept { return *bb_master_; }
  [[nodiscard]] bb::NodeAgent& agent(std::uint32_t i) noexcept {
    return *agents_[i];
  }
  [[nodiscard]] lustre::Oss& oss(std::uint32_t i) noexcept {
    return *osses_[i];
  }
  [[nodiscard]] std::uint32_t oss_count() const noexcept {
    return static_cast<std::uint32_t>(osses_.size());
  }
  // The fault injector, pre-wired with KV crash targets and OSS/journal
  // device targets. Passive unless config.faults.enabled.
  [[nodiscard]] faults::FaultInjector& injector() noexcept {
    return *injector_;
  }

  // Node-local storage consumed on compute node i (DataNode disk + BB RAM
  // disk) — the resource the paper's design conserves (experiment F9).
  [[nodiscard]] std::uint64_t local_bytes_used(std::uint32_t i) const;
  [[nodiscard]] std::uint64_t total_local_bytes_used() const;

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<net::Transport> hdfs_transport_;
  std::unique_ptr<net::Transport> fast_transport_;
  std::unique_ptr<net::RpcHub> hdfs_hub_;
  std::unique_ptr<net::RpcHub> fast_hub_;

  std::vector<net::NodeId> compute_nodes_;
  net::NodeId namenode_node_ = 0;
  net::NodeId bb_master_node_ = 0;
  net::NodeId mds_node_ = 0;
  std::vector<net::NodeId> kv_nodes_;

  std::vector<std::unique_ptr<hdfs::DataNode>> datanodes_;
  std::unique_ptr<hdfs::NameNode> namenode_;
  std::vector<std::unique_ptr<lustre::Oss>> osses_;
  std::unique_ptr<lustre::Mds> mds_;
  std::vector<std::unique_ptr<kv::Server>> kv_servers_;
  std::vector<std::unique_ptr<bb::NodeAgent>> agents_;
  std::unique_ptr<bb::Master> bb_master_;

  std::unique_ptr<hdfs::HdfsFileSystem> hdfs_fs_;
  std::unique_ptr<lustre::LustreFileSystem> lustre_fs_;
  std::unique_ptr<bb::BurstBufferFileSystem> bb_fs_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

}  // namespace hpcbb::cluster
