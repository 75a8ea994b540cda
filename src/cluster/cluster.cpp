#include "cluster/cluster.h"

namespace hpcbb::cluster {

std::string_view to_string(FsKind kind) noexcept {
  switch (kind) {
    case FsKind::kHdfs: return "HDFS";
    case FsKind::kLustre: return "Lustre";
    case FsKind::kBurstBuffer: return "BurstBuffer";
  }
  return "?";
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  const std::uint32_t total_nodes = config_.compute_nodes + 3 +
                                    config_.oss_count + config_.kv_servers;
  fabric_ = std::make_unique<net::Fabric>(sim_, total_nodes, config_.fabric);
  hdfs_transport_ = std::make_unique<net::Transport>(
      *fabric_, net::transport_preset(config_.hdfs_transport));
  fast_transport_ = std::make_unique<net::Transport>(
      *fabric_, net::transport_preset(config_.fast_transport));
  hdfs_hub_ = std::make_unique<net::RpcHub>(*hdfs_transport_);
  fast_hub_ = std::make_unique<net::RpcHub>(*fast_transport_);
  fast_hub_->set_retry_policy(config_.retry);

  for (net::NodeId n = 0; n < config_.compute_nodes; ++n) {
    compute_nodes_.push_back(n);
  }
  namenode_node_ = config_.compute_nodes;
  bb_master_node_ = config_.compute_nodes + 1;
  mds_node_ = config_.compute_nodes + 2;
  const net::NodeId oss_base = config_.compute_nodes + 3;
  const net::NodeId kv_base = oss_base + config_.oss_count;

  // HDFS stack (sockets hub).
  hdfs::DataNodeParams dn_params;
  dn_params.disk = config_.node_disk;
  for (const net::NodeId n : compute_nodes_) {
    datanodes_.push_back(
        std::make_unique<hdfs::DataNode>(*hdfs_hub_, n, dn_params));
  }
  hdfs::NameNodeParams nn_params;
  nn_params.default_replication = config_.hdfs_replication;
  nn_params.default_block_size = config_.block_size;
  namenode_ = std::make_unique<hdfs::NameNode>(*hdfs_hub_, namenode_node_,
                                               compute_nodes_, nn_params);
  hdfs::HdfsClientParams hdfs_client;
  hdfs_client.block_size = config_.block_size;
  hdfs_fs_ = std::make_unique<hdfs::HdfsFileSystem>(*hdfs_hub_, namenode_node_,
                                                    hdfs_client);

  // Lustre stack (verbs hub).
  std::vector<lustre::OstTarget> targets;
  lustre::OssParams oss_params = config_.oss;
  oss_params.ost_count = config_.osts_per_oss;
  for (std::uint32_t i = 0; i < config_.oss_count; ++i) {
    const net::NodeId node = oss_base + i;
    osses_.push_back(std::make_unique<lustre::Oss>(*fast_hub_, node,
                                                   oss_params));
    for (std::uint32_t t = 0; t < config_.osts_per_oss; ++t) {
      targets.push_back({node, t});
    }
  }
  mds_ = std::make_unique<lustre::Mds>(*fast_hub_, mds_node_, targets,
                                       config_.mds);
  lustre::LustreFsParams lustre_fs_params;
  lustre_fs_params.nominal_block_size = config_.block_size;
  lustre_fs_ = std::make_unique<lustre::LustreFileSystem>(
      *fast_hub_, mds_node_, lustre_fs_params);

  // Burst-buffer stack (verbs hub).
  kv::ServerParams kv_params;
  kv_params.store.memory_budget = config_.kv_memory_per_server;
  kv_params.store.shard_count = config_.kv_shards;
  kv_params.persist_writes = config_.kv_persist_writes;
  kv_params.journal = config_.kv_journal;
  for (std::uint32_t i = 0; i < config_.kv_servers; ++i) {
    const net::NodeId node = kv_base + i;
    kv_servers_.push_back(
        std::make_unique<kv::Server>(*fast_hub_, node, kv_params));
    kv_nodes_.push_back(node);
  }
  std::map<net::NodeId, bb::NodeAgent*> agent_map;
  if (config_.scheme == bb::Scheme::kLocal) {
    bb::AgentParams agent_params;
    agent_params.ramdisk_bytes = config_.ramdisk_bytes;
    for (const net::NodeId n : compute_nodes_) {
      agents_.push_back(
          std::make_unique<bb::NodeAgent>(*fast_hub_, n, agent_params));
      agent_map[n] = agents_.back().get();
    }
  }
  bb::CommonParams bb_common;
  bb_common.scheme = config_.scheme;
  bb_common.block_size = config_.block_size;
  bb_common.chunk_size = config_.chunk_size;
  bb_common.kv_client = config_.kv_client;
  bb::MasterParams master_params;
  master_params.flowctl = config_.bb_flowctl;
  master_params.flowctl.capacity_bytes =
      config_.kv_memory_per_server * config_.kv_servers;
  master_params.heartbeat_interval_ns = config_.bb_heartbeat_interval_ns;
  master_params.suspect_after = config_.bb_suspect_after;
  master_params.dead_after = config_.bb_dead_after;
  master_params.scrub = config_.bb_scrub;
  master_params.md = config_.bb_md;
  bb_master_ = std::make_unique<bb::Master>(*fast_hub_, bb_master_node_,
                                            kv_nodes_, mds_node_, bb_common,
                                            master_params);
  bb::BbFsParams bb_params;
  bb_params.promote_on_read = config_.bb_promote_on_read;
  bb_fs_ = std::make_unique<bb::BurstBufferFileSystem>(
      *fast_hub_, bb_master_node_, kv_nodes_, mds_node_, agent_map, bb_common,
      bb_params);

  // Fault injection: KV servers are crash targets (process dies, node drops
  // off the fabric, restarts empty); OSS devices and KV journal SSDs are
  // limpware targets. Passive unless config.faults.enabled.
  injector_ = std::make_unique<faults::FaultInjector>(sim_, config_.faults);
  injector_->arm_fabric(*fabric_);
  for (std::uint32_t i = 0; i < config_.kv_servers; ++i) {
    kv::Server* server = kv_servers_[i].get();
    net::Fabric* fabric = fabric_.get();
    const net::NodeId node = server->node();
    injector_->add_crash_target(
        "kv" + std::to_string(i),
        [server, fabric, node] {
          server->crash();
          fabric->set_node_up(node, false);
        },
        [server, fabric, node] {
          fabric->set_node_up(node, true);
          server->restart();
        });
    if (storage::Device* journal = server->journal_device();
        journal != nullptr) {
      injector_->add_device_target("kv" + std::to_string(i) + ".journal",
                                   journal);
    }
    // KV slabs are corruption targets: scheduled bit-flips / torn writes /
    // stale reads land on resident values, to be caught by verified reads.
    injector_->add_corrupt_target(
        "kv" + std::to_string(i),
        [server](const std::string& object, std::uint64_t selector,
                 CorruptKind kind) {
          return server->store().corrupt_one(selector, kind, object);
        });
  }
  for (std::uint32_t i = 0; i < config_.oss_count; ++i) {
    injector_->add_device_target("oss" + std::to_string(i),
                                 &osses_[i]->device());
    // OSS object stores serve the hook installed by their LocalStore.
    storage::Device* device = &osses_[i]->device();
    injector_->add_corrupt_target(
        "oss" + std::to_string(i),
        [device](const std::string& object, std::uint64_t selector,
                 CorruptKind kind) {
          return device->corrupt(object, selector, kind);
        });
  }
  // DataNode disks route corrupt_block (and scheduled corruption) through
  // the injector so HDFS corruption ticks faults.injected{kind=corrupt.*}.
  for (auto& dn : datanodes_) dn->attach_fault_injector(injector_.get());
  // The BB master is a control-plane crash target (faults.master.*): the
  // process dies and the node drops off the fabric, so in-flight client
  // RPCs fail over to the RetryPolicy; restart runs journal recovery.
  {
    bb::Master* master = bb_master_.get();
    net::Fabric* fabric = fabric_.get();
    const net::NodeId node = bb_master_node_;
    injector_->add_master_target(
        "bb_master",
        [master, fabric, node] {
          master->crash();
          fabric->set_node_up(node, false);
        },
        [master, fabric, node] {
          fabric->set_node_up(node, true);
          master->restart();
        });
  }
  injector_->start();
}

Cluster::~Cluster() = default;

fs::FileSystem& Cluster::filesystem(FsKind kind) {
  switch (kind) {
    case FsKind::kHdfs: return *hdfs_fs_;
    case FsKind::kLustre: return *lustre_fs_;
    case FsKind::kBurstBuffer: return *bb_fs_;
  }
  return *hdfs_fs_;
}

std::unique_ptr<mapred::JobRunner> Cluster::make_runner(FsKind kind) {
  return std::make_unique<mapred::JobRunner>(hub_for(kind), filesystem(kind),
                                             compute_nodes_, config_.mapred);
}

std::uint64_t Cluster::local_bytes_used(std::uint32_t i) const {
  std::uint64_t total = datanodes_[i]->used_bytes();
  if (i < agents_.size()) total += agents_[i]->used_bytes();
  return total;
}

std::uint64_t Cluster::total_local_bytes_used() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < config_.compute_nodes; ++i) {
    total += local_bytes_used(i);
  }
  return total;
}

}  // namespace hpcbb::cluster
