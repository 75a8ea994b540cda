#include "repl/recovery.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/metrics.h"

namespace hpcbb::repl {

namespace {

kv::ClientParams recovery_client_params(kv::ClientParams params) {
  // The recovery client addresses servers explicitly (set_on/get_from);
  // implicit routing, failover, and write fan-out must stay out of its way.
  params.failover = false;
  params.replication_factor = 1;
  return params;
}

bool contains(const std::vector<std::uint32_t>& set, std::uint32_t server) {
  return std::find(set.begin(), set.end(), server) != set.end();
}

}  // namespace

RecoveryManager::RecoveryManager(net::RpcHub& hub, net::NodeId node,
                                 std::vector<net::NodeId> kv_servers,
                                 const kv::ClientParams& client_params)
    : hub_(&hub),
      servers_(kv_servers),
      ring_(static_cast<std::uint32_t>(kv_servers.size())),
      kv_(hub, node, std::move(kv_servers),
          recovery_client_params(client_params)),
      replication_factor_(client_params.replication_factor) {}

void RecoveryManager::on_server_dead(std::uint32_t kv_index) {
  if (!chunks_ || !live_) return;
  hub_->transport().fabric().simulation().spawn(repair_after_death(kv_index));
}

void RecoveryManager::on_server_rejoined(std::uint32_t kv_index) {
  if (!chunks_ || !live_) return;
  hub_->transport().fabric().simulation().spawn(anti_entropy(kv_index));
}

sim::Task<Result<BytesPtr>> RecoveryManager::read_surviving_copy(
    std::string key, std::uint32_t skip, std::uint32_t* source) {
  const auto order = ring_.successors(key, ring_.server_count());
  Result<BytesPtr> last = error(StatusCode::kNotFound, "no surviving copy");
  for (const std::uint32_t s : order) {
    if (s == skip || !live_(s)) continue;
    last = co_await kv_.get_from(servers_[s], key);
    if (last.is_ok()) {
      if (source != nullptr) *source = s;
      co_return last;
    }
  }
  co_return last;
}

sim::Task<void> RecoveryManager::repair_after_death(std::uint32_t dead) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  MetricRegistry& metrics = sim.metrics();
  ++active_runs_;
  const sim::SimTime start = sim.now();

  // Snapshot the inventory once: chunks written after this point already
  // fan out to live replicas on the write path.
  const std::vector<ChunkRef> snapshot = chunks_();
  std::vector<ChunkRef> affected;
  for (const ChunkRef& chunk : snapshot) {
    if (contains(replicas(chunk.key), dead)) affected.push_back(chunk);
  }
  std::map<std::string, std::uint64_t> remaining;
  for (const ChunkRef& chunk : affected) ++remaining[chunk.block];
  Gauge& under = metrics.gauge("kv.repl.under_replicated");
  under.add(remaining.size());

  for (const ChunkRef& chunk : affected) {
    co_await flowctl::pace_begin(flowctl_, chunk.bytes);
    // New home: the first live server past the replica set in the same
    // successor order failover reads walk.
    const auto order = ring_.successors(chunk.key, ring_.server_count());
    std::uint32_t dest = ring_.server_count();
    for (std::size_t i = replication_factor_; i < order.size(); ++i) {
      if (live_(order[i])) {
        dest = order[i];
        break;
      }
    }
    if (dest == ring_.server_count()) {
      // Every server outside the replica set is down too; nothing to do
      // until membership changes again.
      metrics.counter("kv.repl.repair_skipped").add();
    } else {
      std::uint32_t source = 0;
      auto data = co_await read_surviving_copy(chunk.key, dead, &source);
      // Deliberately not a conditional expression: GCC mishandles
      // temporaries when a co_await sits inside ?: operands.
      Status st = data.status();
      if (data.is_ok()) {
        st = co_await kv_.set_on(servers_[dest], chunk.key, data.value(),
                                 chunk.pinned);
      }
      if (st.is_ok()) {
        metrics.counter("kv.repl.repair_chunks").add();
        metrics.counter("kv.repl.repair_bytes").add(chunk.bytes);
      } else {
        // No surviving replica (or the copy itself failed): the chunk is
        // gone from the buffer. Readers fall back to Lustre; dirty data is
        // the durability window the scheme documents.
        metrics.counter("kv.repl.repair_failed").add();
      }
    }
    flowctl::pace_end(flowctl_, chunk.bytes);
    const auto it = remaining.find(chunk.block);
    if (it != remaining.end() && --it->second == 0) {
      remaining.erase(it);
      under.sub();
    }
  }
  under.sub(remaining.size());
  metrics.histogram("kv.repl.repair_ns").record(sim.now() - start);
  --active_runs_;
}

sim::Task<void> RecoveryManager::anti_entropy(std::uint32_t joined) {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  MetricRegistry& metrics = sim.metrics();
  ++active_runs_;
  metrics.counter("kv.repl.anti_entropy_runs").add();
  const sim::SimTime start = sim.now();

  const std::vector<ChunkRef> snapshot = chunks_();
  std::vector<ChunkRef> mine;
  for (const ChunkRef& chunk : snapshot) {
    if (contains(replicas(chunk.key), joined)) mine.push_back(chunk);
  }
  std::map<std::string, std::uint64_t> remaining;
  for (const ChunkRef& chunk : mine) ++remaining[chunk.block];
  Gauge& under = metrics.gauge("kv.repl.under_replicated");
  under.add(remaining.size());

  bool aborted = false;
  for (const ChunkRef& chunk : mine) {
    // The joined server crashed again mid-stream: stop without declaring
    // it recovered; the next rejoin starts a fresh run.
    if (recovering_ && !recovering_(joined)) {
      aborted = true;
      break;
    }
    co_await flowctl::pace_begin(flowctl_, chunk.bytes);
    std::uint32_t source = 0;
    auto data = co_await read_surviving_copy(chunk.key, joined, &source);
    if (data.is_ok()) {
      Status st = co_await kv_.set_on(servers_[joined], chunk.key,
                                      data.value(), chunk.pinned);
      if (st.is_ok()) {
        metrics.counter("kv.repl.anti_entropy_chunks").add();
        metrics.counter("kv.repl.anti_entropy_bytes").add(chunk.bytes);
        // A copy that overflowed past the replica set during repair
        // migrates home: erase it from the stand-in holder.
        if (!contains(replicas(chunk.key), source)) {
          (void)co_await kv_.erase_on(servers_[source], chunk.key);
        }
      } else {
        metrics.counter("kv.repl.anti_entropy_failed").add();
        if (st.code() == StatusCode::kUnavailable) {
          aborted = true;  // target went down mid-copy
          flowctl::pace_end(flowctl_, chunk.bytes);
          break;
        }
      }
    } else {
      // Every copy of this chunk is gone; anti-entropy cannot resurrect it.
      metrics.counter("kv.repl.anti_entropy_missing").add();
    }
    flowctl::pace_end(flowctl_, chunk.bytes);
    const auto it = remaining.find(chunk.block);
    if (it != remaining.end() && --it->second == 0) {
      remaining.erase(it);
      under.sub();
    }
  }
  under.sub(remaining.size());
  metrics.histogram("kv.repl.anti_entropy_ns").record(sim.now() - start);
  --active_runs_;
  if (!aborted && done_) done_(joined);
}

}  // namespace hpcbb::repl
