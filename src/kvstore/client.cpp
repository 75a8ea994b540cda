#include "kvstore/client.h"

#include <cassert>
#include <map>
#include <utility>

#include "sim/sync.h"

namespace hpcbb::kv {
namespace {

// Background replica write for primary-ack mode. A free coroutine that
// captures no Client state: the acking caller (often a short-lived writer)
// may be destroyed before the trailing copies land.
sim::Task<void> detached_replica_set(net::RpcHub* hub, net::NodeId self,
                                     net::NodeId server, std::string key,
                                     ByteSlice value, bool pinned,
                                     std::uint64_t expiry_ns,
                                     std::uint64_t op_id,
                                     std::optional<std::uint32_t> value_crc,
                                     bool by_rdma) {
  auto& metrics = hub->transport().fabric().simulation().metrics();
  if (by_rdma) {
    Status st =
        co_await hub->transport().rdma_write(self, server, value.length);
    if (!st.is_ok()) {
      metrics.counter("kv.repl.replica_write_failures").add();
      co_return;
    }
  }
  auto req = std::make_shared<SetRequest>();
  req->key = std::move(key);
  req->value = std::move(value);
  req->pinned = pinned;
  req->expiry_ns = expiry_ns;
  req->payload_by_rdma = by_rdma;
  req->op_id = op_id;
  req->value_crc = value_crc;
  auto result = co_await hub->call<void>(
      self, server, kOpSet, std::shared_ptr<const SetRequest>(std::move(req)));
  if (!result.is_ok()) {
    metrics.counter("kv.repl.replica_write_failures").add();
  }
}

}  // namespace

Client::Client(net::RpcHub& hub, net::NodeId self,
               std::vector<net::NodeId> servers, const ClientParams& params)
    : hub_(&hub),
      self_(self),
      servers_(std::move(servers)),
      ring_(static_cast<std::uint32_t>(servers_.size())),
      params_(params) {
  assert(!servers_.empty());
}

bool Client::use_rdma(std::uint64_t bytes) const noexcept {
  return hub_->transport().params().one_sided_capable &&
         bytes >= params_.rdma_threshold_bytes;
}

std::uint32_t Client::effective_factor() const noexcept {
  return std::min(std::max(params_.replication_factor, 1u),
                  ring_.server_count());
}

std::uint32_t Client::walk_limit() const noexcept {
  // With failover the walk covers the whole ring; without it, only the
  // replica set is eligible.
  return params_.failover ? ring_.server_count() : effective_factor();
}

sim::Task<Status> Client::set(std::string key, ByteSlice value,
                              bool pinned, std::uint64_t expiry_ns,
                              std::uint64_t op_id,
                              std::optional<std::uint32_t> value_crc) {
  const std::uint32_t r = effective_factor();
  if (r == 1 && !params_.failover) {
    const net::NodeId server = server_for(key);
    co_return co_await set_on(server, std::move(key), std::move(value),
                              pinned, expiry_ns, op_id, value_crc);
  }

  auto& sim = hub_->transport().fabric().simulation();
  auto& metrics = sim.metrics();
  const sim::SimTime start = sim.now();
  const auto order = ring_.successors(key, walk_limit());

  // Walk the successor list until one server accepts the write; that server
  // is the ack point. Hops within the replica set are replica failures,
  // hops beyond it are failovers.
  std::size_t acked = order.size();
  Status last = Status::ok();
  for (std::size_t i = 0; i < order.size(); ++i) {
    Status st = co_await set_on(servers_[order[i]], key, value, pinned,
                                expiry_ns, op_id, value_crc);
    if (st.is_ok()) {
      acked = i;
      break;
    }
    last = st;
    if (st.code() != StatusCode::kUnavailable) co_return st;
    if (i < r) {
      metrics.counter("kv.repl.replica_write_failures").add();
    }
    if (i + 1 < order.size() && i + 1 >= r) {
      metrics.counter("kv.failover.set").add();
    }
  }
  if (acked == order.size()) {
    if (params_.failover) metrics.counter("kv.failover.exhausted").add();
    co_return last;
  }

  // Replicate to the untried members of the replica set (replicas before
  // the ack point already failed — the recovery manager repairs those).
  if (params_.ack == AckMode::kAll) {
    std::vector<sim::Task<Status>> writes;
    for (std::size_t i = acked + 1; i < r; ++i) {
      writes.push_back(set_on(servers_[order[i]], key, value, pinned,
                              expiry_ns, op_id, value_crc));
    }
    if (!writes.empty()) {
      const auto statuses =
          co_await sim::parallel_collect(sim, std::move(writes));
      for (const Status& st : statuses) {
        if (!st.is_ok()) {
          metrics.counter("kv.repl.replica_write_failures").add();
        }
      }
    }
    if (r > 1) {
      metrics.histogram("kv.repl.ack_all_ns").record(sim.now() - start);
    }
  } else {
    for (std::size_t i = acked + 1; i < r; ++i) {
      sim.spawn(detached_replica_set(hub_, self_, servers_[order[i]], key,
                                     value, pinned, expiry_ns, op_id,
                                     value_crc, use_rdma(value.length)));
    }
    if (r > 1) {
      metrics.histogram("kv.repl.ack_primary_ns").record(sim.now() - start);
    }
  }
  co_return Status::ok();
}

sim::Task<Status> Client::set_on(net::NodeId server, std::string key,
                                 ByteSlice value, bool pinned,
                                 std::uint64_t expiry_ns,
                                 std::uint64_t op_id,
                                 std::optional<std::uint32_t> value_crc) {
  auto req = std::make_shared<SetRequest>();
  req->key = std::move(key);
  req->value = std::move(value);
  req->pinned = pinned;
  req->expiry_ns = expiry_ns;
  req->payload_by_rdma = use_rdma(req->value.length);
  req->op_id = op_id;
  req->value_crc = value_crc;

  if (req->payload_by_rdma) {
    // Push the payload into the server's registered region first; the
    // control message then carries only key + metadata.
    Status st = co_await hub_->transport().rdma_write(self_, server,
                                                      req->value.length);
    if (!st.is_ok()) co_return st;
  }
  auto result = co_await hub_->call<void>(self_, server, kOpSet,
                                          std::shared_ptr<const SetRequest>(
                                              std::move(req)));
  co_return result.status();
}

sim::Task<Result<BytesPtr>> Client::get(std::string key,
                                        std::uint64_t op_id) {
  auto reply = co_await get_verified(std::move(key), op_id);
  if (!reply.is_ok()) co_return reply.status();
  co_return reply.value()->value;
}

sim::Task<Result<std::shared_ptr<const GetReply>>> Client::get_verified(
    std::string key, std::uint64_t op_id) {
  const std::uint32_t r = effective_factor();
  auto& metrics = hub_->transport().fabric().simulation().metrics();
  if (r == 1 && !params_.failover) {
    const net::NodeId server = server_for(key);
    auto fetched = co_await fetch_from(server, std::move(key), op_id);
    // No replica to repair from: the corruption is detected but final.
    if (fetched.code() == StatusCode::kDataLoss) {
      metrics.counter("kv.integrity.unrepairable").add();
    }
    co_return fetched;
  }

  const auto order = ring_.successors(key, walk_limit());
  // Read from the first replica that answers with verified data. kNotFound
  // falls through too: data written while a server was down lives further
  // along the chain, and a restarted-empty server misses on everything.
  // kDataLoss (checksum mismatch) also falls through — and the positions
  // that served corrupt data are overwritten from the first good copy.
  std::vector<std::size_t> corrupt;
  Status last = error(StatusCode::kInternal, "empty walk");
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto fetched = co_await fetch_from(servers_[order[i]], key, op_id);
    if (fetched.is_ok()) {
      if (i > 0 && i < r) metrics.counter("kv.repl.replica_reads").add();
      const auto& reply = *fetched.value();
      for (const std::size_t bad : corrupt) {
        // Read-repair preserves the pin bit: a repaired dirty chunk must
        // stay eviction-proof until the flusher unpins it.
        Status st = co_await set_on(servers_[order[bad]], key, reply.value,
                                    reply.pinned, 0, op_id);
        if (st.is_ok()) {
          metrics.counter("kv.integrity.repaired").add();
        } else {
          metrics.counter("kv.integrity.repair_failures").add();
        }
      }
      co_return fetched;
    }
    last = fetched.status();
    const StatusCode code = last.code();
    if (code == StatusCode::kDataLoss) {
      corrupt.push_back(i);
    } else if (code != StatusCode::kUnavailable &&
               code != StatusCode::kNotFound) {
      co_return last;
    }
    if (i + 1 < order.size() && i + 1 >= r) {
      metrics.counter("kv.failover.get").add();
    }
  }
  if (params_.failover) metrics.counter("kv.failover.exhausted").add();
  if (!corrupt.empty()) {
    // Every copy is gone or corrupt: report kDataLoss, never a silent miss.
    metrics.counter("kv.integrity.unrepairable").add();
    co_return error(StatusCode::kDataLoss,
                    "all replicas corrupt or unavailable");
  }
  co_return last;
}

sim::Task<Result<BytesPtr>> Client::get_from(net::NodeId server,
                                             std::string key,
                                             std::uint64_t op_id) {
  auto fetched = co_await fetch_from(server, std::move(key), op_id);
  if (!fetched.is_ok()) co_return fetched.status();
  co_return fetched.value()->value;
}

sim::Task<Result<std::shared_ptr<const GetReply>>> Client::fetch_from(
    net::NodeId server, std::string key, std::uint64_t op_id) {
  auto req =
      std::make_shared<const GetRequest>(GetRequest{std::move(key), op_id});
  auto result = co_await hub_->call<GetReply>(self_, server, kOpGet, req);
  if (!result.is_ok()) co_return result.status();
  const auto& reply = result.value();
  if (!reply->inline_payload) {
    // Metadata-only reply: pull the payload with a one-sided READ.
    Status st = co_await hub_->transport().rdma_read(self_, server,
                                                     reply->value->size());
    if (!st.is_ok()) co_return st;
  }
  co_return reply;
}

sim::Task<Result<std::vector<std::optional<BytesPtr>>>> Client::multi_get(
    std::vector<std::string> keys) {
  // Group keys by owning server, preserving each key's output slot.
  std::map<net::NodeId, std::vector<std::size_t>> by_server;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    by_server[server_for(keys[i])].push_back(i);
  }

  std::vector<std::optional<BytesPtr>> out(keys.size());
  const bool can_fall_back = effective_factor() > 1 || params_.failover;
  for (const auto& [server, indices] : by_server) {
    auto req = std::make_shared<MultiGetRequest>();
    req->keys.reserve(indices.size());
    for (const std::size_t i : indices) req->keys.push_back(keys[i]);
    auto result = co_await hub_->call<MultiGetReply>(
        self_, server, kOpMultiGet,
        std::shared_ptr<const MultiGetRequest>(std::move(req)));
    if (!result.is_ok()) {
      // With replicas or failover available, retry the affected keys
      // individually so one dead primary doesn't fail the whole batch.
      if (!can_fall_back ||
          result.status().code() != StatusCode::kUnavailable) {
        co_return result.status();
      }
      for (const std::size_t i : indices) {
        auto one = co_await get(keys[i]);
        if (one.is_ok()) {
          out[i] = std::move(one).value();
        } else if (one.status().code() != StatusCode::kNotFound) {
          co_return one.status();
        }
      }
      continue;
    }
    const auto& reply = result.value();
    if (reply->values.size() != indices.size()) {
      co_return error(StatusCode::kInternal, "multi-get shape mismatch");
    }
    for (std::size_t j = 0; j < indices.size(); ++j) {
      out[indices[j]] = reply->values[j];
      // A replicated miss may still hit further along the chain (e.g. the
      // primary restarted empty), and a corrupt entry, which the server
      // reports as a miss, gets the get() walk that repairs it.
      if (!out[indices[j]] && effective_factor() > 1) {
        auto one = co_await get(keys[indices[j]]);
        if (one.is_ok()) out[indices[j]] = std::move(one).value();
      }
    }
  }
  co_return out;
}

sim::Task<Status> Client::erase(std::string key) {
  const std::uint32_t r = effective_factor();
  if (r == 1) {
    const net::NodeId server = server_for(key);
    co_return co_await erase_on(server, std::move(key));
  }
  // Erase everywhere the key may live; a down or already-empty replica is
  // not an error as long as the primary copy is handled.
  const auto replicas = ring_.successors(key, r);
  Status primary = co_await erase_on(servers_[replicas[0]], key);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    Status st = co_await erase_on(servers_[replicas[i]], key);
    if (primary.code() == StatusCode::kUnavailable && st.is_ok()) {
      primary = st;
    }
  }
  co_return primary;
}

sim::Task<Status> Client::erase_on(net::NodeId server,
                                   std::string key) {
  auto req = std::make_shared<const EraseRequest>(EraseRequest{std::move(key)});
  auto result = co_await hub_->call<void>(self_, server, kOpErase, req);
  co_return result.status();
}

sim::Task<Status> Client::pin(std::string key, bool pinned) {
  const std::uint32_t r = effective_factor();
  if (r == 1) {
    const net::NodeId server = server_for(key);
    co_return co_await pin_on(server, std::move(key), pinned);
  }
  const auto replicas = ring_.successors(key, r);
  Status primary = co_await pin_on(servers_[replicas[0]], key, pinned);
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    Status st = co_await pin_on(servers_[replicas[i]], key, pinned);
    if (primary.code() == StatusCode::kUnavailable && st.is_ok()) {
      primary = st;
    }
  }
  co_return primary;
}

sim::Task<Status> Client::pin_on(net::NodeId server, std::string key,
                                 bool pinned) {
  auto req = std::make_shared<const PinRequest>(PinRequest{std::move(key), pinned});
  auto result = co_await hub_->call<void>(self_, server, kOpPin, req);
  co_return result.status();
}

sim::Task<Result<PingReply>> Client::ping(net::NodeId server) {
  static const net::RetryPolicy kNoRetry{};
  auto req = std::make_shared<const PingRequest>();
  auto result = co_await hub_->call<PingReply>(
      self_, server, kOpPing, req,
      net::CallOptions{.idempotent = true, .policy = &kNoRetry});
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

sim::Task<Result<StatsReply>> Client::server_stats(
    std::uint32_t server_index) {
  assert(server_index < servers_.size());
  auto req = std::make_shared<const StatsRequest>();
  auto result = co_await hub_->call<StatsReply>(
      self_, servers_[server_index], kOpStats, req);
  if (!result.is_ok()) co_return result.status();
  co_return *result.value();
}

}  // namespace hpcbb::kv
