#include "hdfs/datanode.h"

#include "common/metrics.h"
#include "sim/sync.h"
#include "sim/trace.h"

namespace hpcbb::hdfs {

DataNode::DataNode(net::RpcHub& hub, net::NodeId node,
                   const DataNodeParams& params)
    : hub_(&hub),
      node_(node),
      write_ns_(hub.metrics(), "hdfs.dn.write"),
      read_ns_(hub.metrics(), "hdfs.dn.read"),
      write_bytes_(hub.metrics(), "hdfs.dn.write_bytes"),
      read_bytes_(hub.metrics(), "hdfs.dn.read_bytes") {
  device_ = std::make_unique<storage::Device>(
      hub_->transport().fabric().simulation(), params.disk);
  store_ = std::make_unique<storage::LocalStore>(*device_);

  hub_->bind(node_, kDnWritePacket,
             net::typed_handler<DnWritePacketRequest>(
                 [this](auto req) { return handle_write_packet(req); }));
  hub_->bind(node_, kDnRead, net::typed_handler<DnReadRequest>([this](
      auto req) { return handle_read(req); }));
  hub_->bind(node_, kDnDeleteBlock,
             net::typed_handler<DnDeleteBlockRequest>(
                 [this](auto req) { return handle_delete(req); }));
  hub_->bind(node_, kDnReplicate,
             net::typed_handler<DnReplicateRequest>(
                 [this](auto req) { return handle_replicate(req); }));
  hub_->bind(node_, kDnPing, net::typed_handler<DnPingRequest>([this](
      auto req) { return handle_ping(req); }));
}

DataNode::~DataNode() {
  for (const net::Port port :
       {kDnWritePacket, kDnRead, kDnDeleteBlock, kDnReplicate, kDnPing}) {
    hub_->unbind(node_, port);
  }
}

void DataNode::attach_fault_injector(faults::FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) return;
  injector_target_ = injector_->corrupt_target_count();
  injector_->add_corrupt_target(
      "dn" + std::to_string(node_),
      [this](const std::string& object, std::uint64_t selector,
             CorruptKind kind) {
        return device_->corrupt(object, selector, kind);
      });
}

void DataNode::corrupt_block(BlockId id, CorruptKind kind) {
  // Mutate stored data so it no longer matches the writer-registered CRC;
  // full-block reads must then fail with kDataLoss.
  if (injector_ != nullptr) {
    (void)injector_->corrupt_target(injector_target_, kind, /*selector=*/0,
                                    block_name(id));
  } else {
    (void)device_->corrupt(block_name(id), /*selector=*/0, kind);
  }
}

sim::Task<net::RpcResponse> DataNode::handle_write_packet(
    std::shared_ptr<const DnWritePacketRequest> req) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "datanode down"));
  }
  const std::string name = block_name(req->block_id);
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "write.", name, "hdfs", node_,
                       sim.current_op());
  write_bytes_->add(req->data->size());

  if (req->downstream.empty()) {
    Status st = co_await store_->write_at(name, req->offset, whole(req->data));
    write_ns_->record(sim.now() - start);
    if (!st.is_ok()) co_return net::rpc_error(std::move(st));
    co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
  }

  // Forward downstream while writing locally (pipeline overlap).
  auto fwd = std::make_shared<DnWritePacketRequest>();
  fwd->block_id = req->block_id;
  fwd->offset = req->offset;
  fwd->data = req->data;
  fwd->downstream.assign(req->downstream.begin() + 1, req->downstream.end());
  const net::NodeId next = req->downstream.front();
  std::vector<sim::Task<Status>> ops;
  ops.push_back([](net::RpcHub& hub, net::NodeId src, net::NodeId dst,
                   std::shared_ptr<const DnWritePacketRequest> r)
                    -> sim::Task<Status> {
    co_return (co_await hub.call<void>(src, dst, kDnWritePacket, r)).status();
  }(*hub_, node_, next, std::move(fwd)));
  ops.push_back(store_->write_at(name, req->offset, whole(req->data)));

  const std::vector<Status> results =
      co_await sim::parallel_collect(sim, std::move(ops));
  write_ns_->record(sim.now() - start);
  for (const Status& st : results) {
    if (!st.is_ok()) co_return net::rpc_error(st);
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> DataNode::handle_ping(
    std::shared_ptr<const DnPingRequest>) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "datanode down"));
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> DataNode::handle_read(
    std::shared_ptr<const DnReadRequest> req) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "datanode down"));
  }
  const std::string name = block_name(req->block_id);
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "read.", name, "hdfs", node_,
                       sim.current_op());
  auto data = co_await store_->read(name, req->offset, req->length);
  read_ns_->record(sim.now() - start);
  if (!data.is_ok()) co_return net::rpc_error(data.status());
  read_bytes_->add(req->length);
  auto reply = std::make_shared<DnReadReply>();
  reply->data = std::move(data).value();
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> DataNode::handle_delete(
    std::shared_ptr<const DnDeleteBlockRequest> req) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "datanode down"));
  }
  (void)store_->remove(block_name(req->block_id));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> DataNode::handle_replicate(
    std::shared_ptr<const DnReplicateRequest> req) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "datanode down"));
  }
  const std::string name = block_name(req->block_id);
  const std::uint64_t size = store_->object_size(name);
  if (size == 0 && !store_->contains(name)) {
    co_return net::rpc_error(error(StatusCode::kNotFound, "no such block"));
  }
  // Stream the block to the target in 1 MiB packets.
  constexpr std::uint64_t kPacket = 1 * MiB;
  for (std::uint64_t off = 0; off < size || (size == 0 && off == 0);
       off += kPacket) {
    const std::uint64_t len = std::min(kPacket, size - off);
    auto piece = co_await store_->read(name, off, len);
    if (!piece.is_ok()) co_return net::rpc_error(piece.status());
    auto pkt = std::make_shared<DnWritePacketRequest>();
    pkt->block_id = req->block_id;
    pkt->offset = off;
    pkt->data = make_bytes(gather(piece.value()));
    auto result =
        co_await hub_->call<void>(node_, req->target, kDnWritePacket,
                                  std::shared_ptr<const DnWritePacketRequest>(
                                      std::move(pkt)));
    if (!result.is_ok()) co_return net::rpc_error(result.status());
    if (size == 0) break;
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

}  // namespace hpcbb::hdfs
