#include "kvstore/server.h"

#include "common/metrics.h"
#include "sim/trace.h"

namespace hpcbb::kv {

Server::Server(net::RpcHub& hub, net::NodeId node, const ServerParams& params)
    : hub_(&hub),
      node_(node),
      params_(params),
      store_(params.store),
      hits_(hub.metrics(), "kv.hits"),
      misses_(hub.metrics(), "kv.misses"),
      get_bytes_(hub.metrics(), "kv.get_bytes"),
      put_bytes_(hub.metrics(), "kv.put_bytes"),
      evictions_(hub.metrics(), "kv.evictions"),
      get_ns_(hub.metrics(), "kv.get"),
      put_ns_(hub.metrics(), "kv.put"),
      bytes_(hub.metrics(), "kv.bytes"),
      node_bytes_(hub.metrics(), labeled("kv.bytes", "node", node)) {
  if (params_.persist_writes) {
    journal_ = std::make_unique<storage::Device>(
        hub_->transport().fabric().simulation(), params_.journal);
  }
  bind_all();
}

Server::~Server() {
  if (!crashed_) unbind_all();
}

void Server::bind_all() {
  hub_->bind(node_, kOpSet, net::typed_handler<SetRequest>(
                                [this](auto req) { return handle_set(req); }));
  hub_->bind(node_, kOpGet, net::typed_handler<GetRequest>(
                                [this](auto req) { return handle_get(req); }));
  hub_->bind(node_, kOpMultiGet,
             net::typed_handler<MultiGetRequest>(
                 [this](auto req) { return handle_multi_get(req); }));
  hub_->bind(node_, kOpErase,
             net::typed_handler<EraseRequest>(
                 [this](auto req) { return handle_erase(req); }));
  hub_->bind(node_, kOpPin, net::typed_handler<PinRequest>(
                                [this](auto req) { return handle_pin(req); }));
  hub_->bind(node_, kOpStats,
             net::typed_handler<StatsRequest>(
                 [this](auto req) { return handle_stats(req); }));
  hub_->bind(node_, kOpPing,
             net::typed_handler<PingRequest>(
                 [this](auto req) { return handle_ping(req); }));
}

void Server::unbind_all() {
  for (const net::Port port : {kOpSet, kOpGet, kOpMultiGet, kOpErase, kOpPin,
                               kOpStats, kOpPing}) {
    hub_->unbind(node_, port);
  }
}

void Server::crash() {
  if (crashed_) return;
  crashed_ = true;
  store_.wipe();
  // Release the wiped bytes from the shared gauge immediately; waiting for
  // the next op would leave the accounting stale across the outage.
  update_store_metrics();
  unbind_all();
}

void Server::restart() {
  if (!crashed_) return;
  // Contents were wiped at crash time; wipe again for the restart-without-
  // crash path and to reset pin/slab accounting from any post-crash races.
  store_.wipe();
  update_store_metrics();
  journal_cursor_ = 0;
  ++incarnation_;
  crashed_ = false;
  bind_all();
  hub_->transport().fabric().simulation().metrics().counter("kv.restarts")
      .add();
}

sim::Task<void> Server::charge_op(std::uint64_t copy_bytes) {
  const sim::SimTime work =
      params_.base_op_ns +
      transfer_time_ns(copy_bytes, params_.memcpy_bytes_per_sec);
  return hub_->transport().fabric().charge_cpu(node_, work);
}

namespace {
net::RpcResponse unavailable() {
  return net::rpc_error(
      error(StatusCode::kUnavailable, "kv server crashed"));
}
}  // namespace

void Server::update_store_metrics() {
  const StoreStats s = store_.stats();
  // Aggregate gauge moves by delta so all servers can share one series;
  // the per-node labeled gauge holds this store's absolute level.
  if (s.bytes >= metered_bytes_) {
    bytes_->add(s.bytes - metered_bytes_);
  } else {
    bytes_->sub(metered_bytes_ - s.bytes);
  }
  metered_bytes_ = s.bytes;
  node_bytes_->set(s.bytes);
  if (s.evictions > metered_evictions_) {
    evictions_->add(s.evictions - metered_evictions_);
    metered_evictions_ = s.evictions;
  }
}

sim::Task<net::RpcResponse> Server::handle_set(
    std::shared_ptr<const SetRequest> req) {
  if (crashed_) co_return unavailable();
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "set.", req->key, "kv", node_,
                       sim.current_op());
  // RDMA-placed payloads skip the receive-path copy.
  co_await charge_op(req->payload_by_rdma ? 0 : req->value.length);
  Status st = store_.set(req->key, req->value,
                         SetOptions{.pinned = req->pinned,
                                    .expiry_ns = req->expiry_ns,
                                    .value_crc = req->value_crc});
  update_store_metrics();
  if (!st.is_ok()) co_return net::rpc_error(std::move(st));
  if (journal_ != nullptr) {
    // Append-only journal on the server's local SSD.
    co_await journal_->write(journal_cursor_, req->value.length);
    journal_cursor_ += req->value.length;
  }
  put_ns_->record(sim.now() - start);
  put_bytes_->add(req->value.length);
  co_return net::RpcResponse{Status::ok(), nullptr, kMsgHeaderBytes};
}

sim::Task<net::RpcResponse> Server::handle_get(
    std::shared_ptr<const GetRequest> req) {
  if (crashed_) co_return unavailable();
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  sim::ScopedSpan span(sim.trace(), "get.", req->key, "kv", node_,
                       sim.current_op());
  const std::uint64_t now = sim.now();
  Result<VerifiedValue> value = store_.get_verified(req->key, now);
  if (!value.is_ok()) {
    co_await charge_op(0);
    if (value.code() == StatusCode::kDataLoss) {
      sim.metrics().counter("kv.integrity.detected").add();
    } else {
      misses_->add();
    }
    get_ns_->record(sim.now() - start);
    co_return net::rpc_error(value.status());
  }
  const std::uint64_t size = value.value().value.length;
  const bool use_rdma = hub_->transport().params().one_sided_capable &&
                        size >= params_.rdma_threshold_bytes;
  // Inline replies copy the value onto the send path; RDMA replies only
  // pass metadata — the client pulls the payload with a one-sided READ.
  // (The modeled copy is charged; the host ships the stored slice.)
  co_await charge_op(use_rdma ? 0 : size);
  auto reply = std::make_shared<GetReply>();
  reply->value_crc = value.value().crc;
  reply->pinned = value.value().pinned;
  reply->value = std::move(value.value().value);
  reply->inline_payload = !use_rdma;
  hits_->add();
  get_bytes_->add(size);
  get_ns_->record(sim.now() - start);
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Server::handle_multi_get(
    std::shared_ptr<const MultiGetRequest> req) {
  if (crashed_) co_return unavailable();
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const std::uint64_t now = sim.now();
  auto reply = std::make_shared<MultiGetReply>();
  reply->values.reserve(req->keys.size());
  std::uint64_t copy_bytes = 0;
  for (const auto& key : req->keys) {
    Result<VerifiedValue> value = store_.get_verified(key, now);
    if (value.is_ok()) {
      copy_bytes += value.value().value.length;
      reply->values.emplace_back(std::move(value.value().value));
    } else {
      // Corrupt entries surface as absent — the client's per-key fallback
      // then runs the verified get() walk, which detects and repairs.
      if (value.code() == StatusCode::kDataLoss) {
        sim.metrics().counter("kv.integrity.detected").add();
      }
      reply->values.emplace_back(std::nullopt);
    }
  }
  co_await charge_op(copy_bytes);
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Server::handle_erase(
    std::shared_ptr<const EraseRequest> req) {
  if (crashed_) co_return unavailable();
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  const sim::SimTime start = sim.now();
  co_await charge_op(0);
  const bool existed = store_.erase(req->key);
  update_store_metrics();
  sim.metrics().histogram("kv.delete").record(sim.now() - start);
  if (!existed) {
    co_return net::rpc_error(error(StatusCode::kNotFound, "key not found"));
  }
  co_return net::RpcResponse{Status::ok(), nullptr, kMsgHeaderBytes};
}

sim::Task<net::RpcResponse> Server::handle_pin(
    std::shared_ptr<const PinRequest> req) {
  if (crashed_) co_return unavailable();
  co_await charge_op(0);
  Status st = store_.set_pinned(req->key, req->pinned);
  if (!st.is_ok()) co_return net::rpc_error(std::move(st));
  co_return net::RpcResponse{Status::ok(), nullptr, kMsgHeaderBytes};
}

sim::Task<net::RpcResponse> Server::handle_stats(
    std::shared_ptr<const StatsRequest>) {
  if (crashed_) co_return unavailable();
  co_await charge_op(0);
  const StoreStats s = store_.stats();
  auto reply = std::make_shared<StatsReply>();
  reply->items = s.items;
  reply->bytes = s.bytes;
  reply->hits = s.hits;
  reply->misses = s.misses;
  reply->evictions = s.evictions;
  reply->set_failures = s.set_failures;
  co_return net::rpc_ok(std::move(reply));
}

sim::Task<net::RpcResponse> Server::handle_ping(
    std::shared_ptr<const PingRequest>) {
  if (crashed_) co_return unavailable();
  co_await charge_op(0);
  auto reply = std::make_shared<PingReply>();
  reply->incarnation = incarnation_;
  co_return net::rpc_ok(std::move(reply));
}

}  // namespace hpcbb::kv
