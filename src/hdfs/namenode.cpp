#include "hdfs/namenode.h"

#include <algorithm>
#include <cassert>

namespace hpcbb::hdfs {

NameNode::NameNode(net::RpcHub& hub, net::NodeId node,
                   std::vector<net::NodeId> datanodes,
                   const NameNodeParams& params)
    : hub_(&hub),
      node_(node),
      params_(params),
      datanodes_(std::move(datanodes)),
      live_datanodes_(datanodes_),
      rng_(params.placement_seed) {
  assert(!datanodes_.empty());
  hub_->bind(node_, kNnCreate, net::typed_handler<NnCreateRequest>([this](
      auto req) { return handle_create(req); }));
  hub_->bind(node_, kNnAddBlock, net::typed_handler<NnAddBlockRequest>([this](
      auto req) { return handle_add_block(req); }));
  hub_->bind(node_, kNnCompleteBlock,
             net::typed_handler<NnCompleteBlockRequest>(
                 [this](auto req) { return handle_complete_block(req); }));
  hub_->bind(node_, kNnClose, net::typed_handler<NnCloseRequest>([this](
      auto req) { return handle_close(req); }));
  hub_->bind(node_, kNnLocations, net::typed_handler<NnLocationsRequest>(
      [this](auto req) { return handle_locations(req); }));
  hub_->bind(node_, kNnDelete, net::typed_handler<NnDeleteRequest>([this](
      auto req) { return handle_delete(req); }));
  hub_->bind(node_, kNnList, net::typed_handler<NnListRequest>([this](
      auto req) { return handle_list(req); }));

  if (params_.heartbeat_interval_ns > 0) {
    hub_->transport().fabric().simulation().spawn(heartbeat_monitor());
  }
}

NameNode::~NameNode() {
  for (const net::Port port : {kNnCreate, kNnAddBlock, kNnCompleteBlock,
                               kNnClose, kNnLocations, kNnDelete, kNnList}) {
    hub_->unbind(node_, port);
  }
}

sim::Task<void> NameNode::charge_md_op() {
  return hub_->transport().fabric().charge_cpu(node_, params_.md_op_ns);
}

std::vector<net::NodeId> NameNode::place_replicas(net::NodeId writer,
                                                  std::uint32_t replication) {
  const net::Fabric& fabric = hub_->transport().fabric();
  std::vector<net::NodeId> pipeline;
  const auto is_live = [this](net::NodeId n) {
    return std::find(live_datanodes_.begin(), live_datanodes_.end(), n) !=
           live_datanodes_.end();
  };
  const auto taken = [&pipeline](net::NodeId n) {
    return std::find(pipeline.begin(), pipeline.end(), n) != pipeline.end();
  };
  // Pick a random live candidate satisfying `pred`; ~0u if none.
  const auto pick_where = [&](auto pred) -> net::NodeId {
    std::vector<net::NodeId> candidates;
    for (const net::NodeId dn : live_datanodes_) {
      if (!taken(dn) && pred(dn)) candidates.push_back(dn);
    }
    if (candidates.empty()) return ~0u;
    return candidates[rng_.uniform(0, candidates.size() - 1)];
  };

  // HDFS default placement: first replica on the writer (map-side
  // locality); second on a different rack (rack-failure tolerance); third
  // on the second's rack (limits cross-rack pipeline traffic); the rest
  // anywhere.
  if (is_live(writer)) pipeline.push_back(writer);
  const std::uint32_t writer_rack = fabric.rack_of(writer);
  if (pipeline.size() < replication) {
    net::NodeId second = pick_where([&](net::NodeId n) {
      return fabric.rack_of(n) != writer_rack;
    });
    if (second == ~0u) second = pick_where([](net::NodeId) { return true; });
    if (second != ~0u) pipeline.push_back(second);
  }
  if (pipeline.size() >= 2 && pipeline.size() < replication) {
    const std::uint32_t second_rack = fabric.rack_of(pipeline[1]);
    net::NodeId third = pick_where([&](net::NodeId n) {
      return fabric.rack_of(n) == second_rack;
    });
    if (third == ~0u) third = pick_where([](net::NodeId) { return true; });
    if (third != ~0u) pipeline.push_back(third);
  }
  while (pipeline.size() < replication) {
    const net::NodeId extra = pick_where([](net::NodeId) { return true; });
    if (extra == ~0u) break;
    pipeline.push_back(extra);
  }
  return pipeline;
}

sim::Task<net::RpcResponse> NameNode::handle_create(
    std::shared_ptr<const NnCreateRequest> req) {
  co_await charge_md_op();
  if (files_.contains(req->path)) {
    co_return net::rpc_error(
        error(StatusCode::kAlreadyExists, "file exists: " + req->path));
  }
  FileMeta meta;
  meta.block_size =
      req->block_size == 0 ? params_.default_block_size : req->block_size;
  meta.replication = req->replication == 0 ? params_.default_replication
                                           : req->replication;
  files_[req->path] = std::move(meta);
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> NameNode::handle_add_block(
    std::shared_ptr<const NnAddBlockRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  if (it->second.closed) {
    co_return net::rpc_error(
        error(StatusCode::kFailedPrecondition, "file is closed"));
  }
  auto assignment = std::make_shared<BlockAssignment>();
  assignment->block_id = next_block_id_++;
  assignment->pipeline = place_replicas(req->writer, it->second.replication);
  if (assignment->pipeline.empty()) {
    co_return net::rpc_error(
        error(StatusCode::kResourceExhausted, "no live datanodes"));
  }
  it->second.blocks.push_back(BlockMeta{assignment->block_id, 0, 0, false});
  block_nodes_[assignment->block_id] = assignment->pipeline;
  co_return net::rpc_ok(std::move(assignment));
}

sim::Task<net::RpcResponse> NameNode::handle_complete_block(
    std::shared_ptr<const NnCompleteBlockRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  for (BlockMeta& block : it->second.blocks) {
    if (block.id == req->block_id) {
      block.size = req->size;
      block.crc32c = req->crc32c;
      block.complete = true;
      co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
    }
  }
  co_return net::rpc_error(error(StatusCode::kNotFound, "no such block"));
}

sim::Task<net::RpcResponse> NameNode::handle_close(
    std::shared_ptr<const NnCloseRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  it->second.closed = true;
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> NameNode::handle_locations(
    std::shared_ptr<const NnLocationsRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  auto reply = std::make_shared<NnLocationsReply>();
  reply->block_size = it->second.block_size;
  reply->replication = it->second.replication;
  for (const BlockMeta& block : it->second.blocks) {
    BlockLocation loc;
    loc.block_id = block.id;
    loc.size = block.size;
    loc.crc32c = block.crc32c;
    const auto nodes = block_nodes_.find(block.id);
    if (nodes != block_nodes_.end()) loc.nodes = nodes->second;
    reply->file_size += block.size;
    reply->blocks.push_back(std::move(loc));
  }
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> NameNode::handle_delete(
    std::shared_ptr<const NnDeleteRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  const FileMeta meta = it->second;
  files_.erase(it);
  for (const BlockMeta& block : meta.blocks) {
    const auto nodes = block_nodes_.find(block.id);
    if (nodes == block_nodes_.end()) continue;
    for (const net::NodeId dn : nodes->second) {
      auto del = std::make_shared<const DnDeleteBlockRequest>(
          DnDeleteBlockRequest{block.id});
      (void)co_await hub_->call<void>(node_, dn, kDnDeleteBlock, del);
    }
    block_nodes_.erase(block.id);
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> NameNode::handle_list(
    std::shared_ptr<const NnListRequest> req) {
  co_await charge_md_op();
  auto reply = std::make_shared<NnListReply>();
  for (const auto& [path, meta] : files_) {
    if (path.starts_with(req->prefix)) reply->paths.push_back(path);
  }
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<void> NameNode::heartbeat_monitor() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  std::unordered_map<net::NodeId, std::uint32_t> misses;
  while (!heartbeats_stopped_) {
    co_await sim.delay(params_.heartbeat_interval_ns);
    if (heartbeats_stopped_) co_return;
    // Snapshot: mark_datanode_dead mutates live_datanodes_.
    const std::vector<net::NodeId> probe = live_datanodes_;
    for (const net::NodeId dn : probe) {
      auto req = std::make_shared<const DnPingRequest>();
      auto result = co_await hub_->call<void>(node_, dn, kDnPing, req);
      if (result.is_ok()) {
        misses[dn] = 0;
        continue;
      }
      if (++misses[dn] >= params_.heartbeat_misses) {
        misses.erase(dn);
        (void)mark_datanode_dead(dn);
      }
    }
  }
}

std::size_t NameNode::mark_datanode_dead(net::NodeId dead) {
  live_datanodes_.erase(
      std::remove(live_datanodes_.begin(), live_datanodes_.end(), dead),
      live_datanodes_.end());

  std::size_t scheduled = 0;
  for (auto& [block_id, nodes] : block_nodes_) {
    const auto found = std::find(nodes.begin(), nodes.end(), dead);
    if (found == nodes.end()) continue;
    nodes.erase(found);
    if (nodes.empty()) continue;  // all replicas lost: data loss, stays empty

    // Pick a live target not already holding the block.
    std::vector<net::NodeId> candidates;
    for (const net::NodeId dn : live_datanodes_) {
      if (std::find(nodes.begin(), nodes.end(), dn) == nodes.end()) {
        candidates.push_back(dn);
      }
    }
    if (candidates.empty()) continue;
    const net::NodeId source = nodes.front();
    const net::NodeId target =
        candidates[rng_.uniform(0, candidates.size() - 1)];
    nodes.push_back(target);
    ++scheduled;

    hub_->transport().fabric().simulation().spawn(
        [](net::RpcHub& hub, net::NodeId nn, net::NodeId src, BlockId blk,
           net::NodeId tgt) -> sim::Task<void> {
          auto req = std::make_shared<const DnReplicateRequest>(
              DnReplicateRequest{blk, tgt});
          (void)co_await hub.call<void>(nn, src, kDnReplicate, req);
        }(*hub_, node_, source, block_id, target));
  }
  return scheduled;
}

}  // namespace hpcbb::hdfs
