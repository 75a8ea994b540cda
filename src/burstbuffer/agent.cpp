#include "burstbuffer/agent.h"

namespace hpcbb::bb {

NodeAgent::NodeAgent(net::RpcHub& hub, net::NodeId node,
                     const AgentParams& params)
    : hub_(&hub), node_(node) {
  device_ = std::make_unique<storage::Device>(
      hub_->transport().fabric().simulation(),
      storage::ramdisk_preset(params.ramdisk_bytes));
  store_ = std::make_unique<storage::LocalStore>(*device_);
  hub_->bind(node_, kAgentRead, net::typed_handler<AgentReadRequest>([this](
      auto req) { return handle_read(req); }));
}

NodeAgent::~NodeAgent() { hub_->unbind(node_, kAgentRead); }

sim::Task<net::RpcResponse> NodeAgent::handle_read(
    std::shared_ptr<const AgentReadRequest> req) {
  if (crashed_) {
    co_return net::rpc_error(error(StatusCode::kUnavailable, "agent down"));
  }
  auto data = co_await store_->read(req->object, req->offset, req->length);
  if (!data.is_ok()) co_return net::rpc_error(data.status());
  auto reply = std::make_shared<AgentReadReply>();
  reply->data = std::move(data).value();
  co_return net::rpc_ok(std::move(reply));
}

}  // namespace hpcbb::bb
