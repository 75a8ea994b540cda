#include "lustre/mds.h"

#include <algorithm>

namespace hpcbb::lustre {

Mds::Mds(net::RpcHub& hub, net::NodeId node, std::vector<OstTarget> osts,
         const MdsParams& params)
    : hub_(&hub), node_(node), params_(params), osts_(std::move(osts)) {
  hub_->bind(node_, kMdsCreate, net::typed_handler<CreateRequest>([this](
      auto req) { return handle_create(req); }));
  hub_->bind(node_, kMdsLookup, net::typed_handler<LookupRequest>([this](
      auto req) { return handle_lookup(req); }));
  hub_->bind(node_, kMdsSetSize, net::typed_handler<SetSizeRequest>([this](
      auto req) { return handle_set_size(req); }));
  hub_->bind(node_, kMdsUnlink, net::typed_handler<UnlinkRequest>([this](
      auto req) { return handle_unlink(req); }));
  hub_->bind(node_, kMdsList, net::typed_handler<ListRequest>([this](
      auto req) { return handle_list(req); }));
}

Mds::~Mds() {
  for (const net::Port port :
       {kMdsCreate, kMdsLookup, kMdsSetSize, kMdsUnlink, kMdsList}) {
    hub_->unbind(node_, port);
  }
}

sim::Task<void> Mds::charge_md_op() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim.metrics().counter("lustre.md_ops").add();
  co_await hub_->transport().fabric().charge_cpu(node_, params_.md_op_ns);
  sim.metrics().histogram("lustre.md").record(sim.now() - start);
}

sim::Task<net::RpcResponse> Mds::handle_create(
    std::shared_ptr<const CreateRequest> req) {
  co_await charge_md_op();
  if (files_.contains(req->path)) {
    co_return net::rpc_error(
        error(StatusCode::kAlreadyExists, "file exists: " + req->path));
  }
  const std::uint32_t want =
      req->stripe_count == 0 ? params_.default_stripe_count
                             : req->stripe_count;
  const auto stripe_count =
      std::min<std::uint32_t>(want, static_cast<std::uint32_t>(osts_.size()));

  auto layout = std::make_shared<FileLayout>();
  layout->path = req->path;
  layout->stripe_size = params_.stripe_size;
  layout->size = 0;
  layout->targets.reserve(stripe_count);
  for (std::uint32_t i = 0; i < stripe_count; ++i) {
    layout->targets.push_back(osts_[next_ost_ % osts_.size()]);
    ++next_ost_;
  }
  files_[req->path] = *layout;
  co_return net::rpc_ok(std::move(layout));
}

sim::Task<net::RpcResponse> Mds::handle_lookup(
    std::shared_ptr<const LookupRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  auto layout = std::make_shared<FileLayout>(it->second);
  co_return net::rpc_ok(std::move(layout));
}

sim::Task<net::RpcResponse> Mds::handle_set_size(
    std::shared_ptr<const SetSizeRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  it->second.size = std::max(it->second.size, req->size);
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Mds::handle_unlink(
    std::shared_ptr<const UnlinkRequest> req) {
  co_await charge_md_op();
  const auto it = files_.find(req->path);
  if (it == files_.end()) {
    co_return net::rpc_error(
        error(StatusCode::kNotFound, "no such file: " + req->path));
  }
  // Release the objects on every stripe target.
  const FileLayout layout = it->second;
  files_.erase(it);
  for (const OstTarget& target : layout.targets) {
    auto del = std::make_shared<const OssDeleteRequest>(OssDeleteRequest{
        target.ost_index, layout.path});
    (void)co_await hub_->call<void>(node_, target.oss_node, kOssDelete, del);
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

sim::Task<net::RpcResponse> Mds::handle_list(
    std::shared_ptr<const ListRequest> req) {
  co_await charge_md_op();
  auto reply = std::make_shared<ListReply>();
  for (const auto& [path, layout] : files_) {
    if (path.starts_with(req->prefix)) reply->paths.push_back(path);
  }
  co_return net::rpc_ok(std::move(reply));
}

}  // namespace hpcbb::lustre
