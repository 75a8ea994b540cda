#include "lustre/oss.h"

#include "common/metrics.h"
#include "sim/trace.h"

namespace hpcbb::lustre {

Oss::Oss(net::RpcHub& hub, net::NodeId node, const OssParams& params)
    : hub_(&hub),
      node_(node),
      params_(params),
      queue_depth_(hub.metrics(), "lustre.queue_depth"),
      write_ns_(hub.metrics(), "lustre.write"),
      read_ns_(hub.metrics(), "lustre.read"),
      write_bytes_(hub.metrics(), "lustre.write_bytes"),
      read_bytes_(hub.metrics(), "lustre.read_bytes") {
  storage::DeviceParams dev;
  dev.kind = storage::MediaKind::kHdd;
  dev.read_bytes_per_sec = params_.read_bytes_per_sec;
  dev.write_bytes_per_sec = params_.write_bytes_per_sec;
  dev.seek_ns = params_.seek_ns;
  dev.capacity_bytes = params_.capacity_bytes;
  device_ = std::make_unique<storage::Device>(
      hub_->transport().fabric().simulation(), dev);
  store_ = std::make_unique<storage::LocalStore>(*device_);

  hub_->bind(node_, kOssWrite, net::typed_handler<OssWriteRequest>([this](
      auto req) { return handle_write(req); }));
  hub_->bind(node_, kOssRead, net::typed_handler<OssReadRequest>([this](
      auto req) { return handle_read(req); }));
  hub_->bind(node_, kOssDelete, net::typed_handler<OssDeleteRequest>([this](
      auto req) { return handle_delete(req); }));
}

Oss::~Oss() {
  for (const net::Port port : {kOssWrite, kOssRead, kOssDelete}) {
    hub_->unbind(node_, port);
  }
}

std::string Oss::object_key(std::uint32_t ost_index,
                            const std::string& object) const {
  return "ost" + std::to_string(ost_index) + "/" + object;
}

sim::Task<net::RpcResponse> Oss::handle_write(
    std::shared_ptr<const OssWriteRequest> req) {
  if (req->ost_index >= params_.ost_count) {
    co_return net::rpc_error(
        error(StatusCode::kInvalidArgument, "no such OST"));
  }
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "write.", req->object, "lustre", node_,
                       sim.current_op());
  queue_depth_->add();
  Status st = co_await store_->write_at(object_key(req->ost_index, req->object),
                                        req->offset, req->data);
  queue_depth_->sub();
  write_ns_->record(sim.now() - start);
  if (!st.is_ok()) co_return net::rpc_error(std::move(st));
  write_bytes_->add(req->data.length);
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Oss::handle_read(
    std::shared_ptr<const OssReadRequest> req) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "read.", req->object, "lustre", node_,
                       sim.current_op());
  queue_depth_->add();
  auto data = co_await store_->read(object_key(req->ost_index, req->object),
                                    req->offset, req->length);
  queue_depth_->sub();
  read_ns_->record(sim.now() - start);
  if (!data.is_ok()) co_return net::rpc_error(data.status());
  read_bytes_->add(req->length);
  auto reply = std::make_shared<OssReadReply>();
  reply->data = std::move(data).value();
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Oss::handle_delete(
    std::shared_ptr<const OssDeleteRequest> req) {
  (void)store_->remove(object_key(req->ost_index, req->object));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

}  // namespace hpcbb::lustre
