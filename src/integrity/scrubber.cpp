#include "integrity/scrubber.h"

#include <span>
#include <utility>

#include "common/crc32c.h"
#include "common/metrics.h"

namespace hpcbb::integrity {

Scrubber::Scrubber(net::RpcHub& hub, net::NodeId node,
                   std::vector<net::NodeId> kv_servers, net::NodeId lustre_mds,
                   const kv::ClientParams& client_params,
                   const ScrubParams& params, std::string lustre_prefix)
    : hub_(&hub),
      node_(node),
      kv_(hub, node, std::move(kv_servers), client_params),
      lustre_(hub, lustre_mds),
      params_(params),
      lustre_prefix_(std::move(lustre_prefix)) {}

void Scrubber::start() {
  if (params_.interval_ns == 0 || !inventory_) return;
  hub_->transport().fabric().simulation().spawn(run());
}

sim::Task<void> Scrubber::run() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  for (;;) {
    co_await sim.delay(params_.interval_ns);
    if (stop_) co_return;
    co_await scrub_pass();
    if (stop_) co_return;
  }
}

sim::Task<void> Scrubber::scrub_pass() {
  sim::Simulation& sim = hub_->transport().fabric().simulation();
  MetricRegistry& metrics = sim.metrics();
  const sim::SimTime start = sim.now();
  ++passes_;
  metrics.counter("kv.scrub.passes").add();

  // Snapshot once: chunks sealed after this point get verified next pass.
  const std::vector<ScrubChunk> snapshot = inventory_();
  for (const ScrubChunk& chunk : snapshot) {
    if (stop_) break;
    co_await flowctl::pace_begin(flowctl_, chunk.padded_len);
    if (params_.chunk_pace_ns > 0) co_await sim.delay(params_.chunk_pace_ns);
    sim::OpScope op(sim);  // one op per probed chunk

    // The verified-read client walks replicas, repairs corrupt copies
    // inline at R>1, and only reports kDataLoss when EVERY buffer copy is
    // corrupt. kNotFound means the (clean, durable) chunk was evicted —
    // nothing resident to scrub.
    auto data = co_await kv_.get_verified(chunk.key);
    if (!data.is_ok() && data.code() != StatusCode::kDataLoss) {
      flowctl::pace_end(flowctl_, chunk.padded_len);
      continue;  // evicted or transient outage; re-probed next pass
    }
    metrics.counter("kv.scrub.chunks").add();
    metrics.counter("kv.scrub.bytes").add(chunk.logical_len);

    bool bad = true;
    if (data.is_ok()) {
      // Defense in depth past the KV item checksum: the value must match
      // what the WRITER sealed, not merely be internally consistent. A full
      // chunk is stored unpadded, so the item CRC the server just verified
      // the bytes against is comparable with the writer's as it is; a
      // padded tail chunk hashes its logical bytes.
      const Bytes& bytes = *data.value()->value;
      if (chunk.logical_len == chunk.padded_len &&
          bytes.size() == chunk.logical_len) {
        bad = data.value()->value_crc != chunk.crc;
      } else {
        bad = bytes.size() < chunk.logical_len ||
              crc32c(std::span<const std::uint8_t>(
                  bytes.data(), chunk.logical_len)) != chunk.crc;
      }
    }
    if (bad) {
      bool fixed = false;
      if (chunk.durable) fixed = co_await repair_from_lustre(chunk);
      if (fixed) {
        metrics.counter("kv.scrub.repaired").add();
      } else {
        metrics.counter("kv.scrub.unrepairable").add();
        // Only unflushed data can be quarantined: a durable block's reads
        // fall through to Lustre, so its bad buffer copy is a cache
        // problem, not a data-loss one.
        if (!chunk.durable && quarantine_) {
          quarantine_(chunk.path, chunk.block_index);
        }
      }
    }
    flowctl::pace_end(flowctl_, chunk.padded_len);
  }
  metrics.histogram("kv.scrub.pass_ns").record(sim.now() - start);
}

sim::Task<bool> Scrubber::repair_from_lustre(ScrubChunk chunk) {
  auto layout = co_await lustre_.lookup(node_, lustre_prefix_ + chunk.path);
  if (!layout.is_ok()) co_return false;
  Result<Bytes> data = co_await lustre_.read(
      node_, layout.value(), chunk.lustre_offset, chunk.logical_len);
  if (!data.is_ok()) co_return false;
  if (crc32c(data.value()) != chunk.crc) co_return false;  // Lustre bad too
  Bytes padded = std::move(data).value();
  padded.resize(chunk.padded_len, 0);  // uniform slab class
  Status st = co_await kv_.set(chunk.key, make_bytes(std::move(padded)),
                               /*pinned=*/false);
  co_return st.is_ok();
}

}  // namespace hpcbb::integrity
