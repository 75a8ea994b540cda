// The flush pipeline: drains sealed dirty blocks from the KV burst buffer to
// Lustre and erases the chunks of blocks flow control evicts. The master
// owns the MdState it updates and hears of every outcome through `journal`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "burstbuffer/mdlog.h"
#include "burstbuffer/params.h"
#include "flowctl/controller.h"
#include "lustre/client.h"

namespace hpcbb::bb {

// Flush workers, placed round-robin on the KV server nodes: in the paper's
// deployment the burst-buffer servers persist their data to Lustre.
inline constexpr std::uint32_t kFlusherCount = 4;

sim::Task<void> erase_chunks(kv::Client& kv, std::string path,
                             std::uint32_t block_index, std::uint32_t chunks);

class FlushPipeline {
 public:
  // `outage` is true while a failed buffer read should be requeued rather
  // than counted as loss. `retry_base_ns` is the wait before a requeued
  // block is tried again, and the base of the Lustre-retry backoff.
  FlushPipeline(net::RpcHub& hub, const std::vector<net::NodeId>& kv_servers,
                const CommonParams& common, sim::SimTime retry_base_ns,
                lustre::LustreClient& lustre,
                flowctl::CapacityController& flowctl, MdState& md,
                std::function<void(MdRecord)> journal,
                std::function<bool()> outage, std::uint32_t trace_track);
  FlushPipeline(const FlushPipeline&) = delete;
  FlushPipeline& operator=(const FlushPipeline&) = delete;

  // Spawn the flush workers, then the evict worker, into the ambient task
  // scope (the master's incarnation: a crash unwinds them).
  void start();
  // Master crash: drop the queued flushes and the dirty count.
  void reset();

  // A sealed block's admission credit becomes dirty or clean bytes; a dirty
  // block also joins the flush queue.
  void add_sealed(const std::string& path, BbBlockInfo& block,
                  bool already_durable);
  // A deleted file's blocks leave the buffer accounting.
  void forget(const std::string& path, std::vector<BbBlockInfo>& blocks);
  // Settle a dirty or flushing block as flushed, lost or quarantined.
  void finish_block(const std::string& path, BbBlockInfo& block,
                    BlockState state);

  sim::Task<void> wait_all_flushed();  // until no block is dirty
  [[nodiscard]] std::uint64_t dirty_blocks() const noexcept { return dirty_; }
  [[nodiscard]] std::uint64_t queue_depth() const noexcept {
    return queue_.size();
  }
  // The first flush worker's KV client, or the first whose node is up.
  [[nodiscard]] kv::Client& client() noexcept { return *clients_.front(); }
  [[nodiscard]] kv::Client& reachable_client() noexcept;

  void set_trace(sim::TraceRecorder* recorder) noexcept { trace_ = recorder; }

 private:
  struct FlushItem {
    std::string path;
    std::uint32_t block_index = 0;
    std::uint64_t op_id = 0;  // causal trace id from the writer
    // Buffer-read requeues so far. Lustre-write retries are counted apart,
    // so a Lustre outage does not use up the buffer-read grace window.
    std::uint32_t attempts = 0;
    std::uint32_t lustre_retries = 0;
    // Stamped by enqueue(): the worker traces the queue dwell from here.
    sim::SimTime enqueued_ns = 0;
  };

  [[nodiscard]] sim::Simulation& sim() const noexcept {
    return hub_->transport().fabric().simulation();
  }
  [[nodiscard]] std::uint64_t footprint(std::uint64_t size) const {
    return std::uint64_t{chunk_count(size, common_.chunk_size)} *
           common_.chunk_size;
  }
  void enqueue(FlushItem item);
  void release_reservation(BbBlockInfo& block);
  void block_left();  // one dirty block fewer
  sim::Task<void> flush_worker(std::uint32_t worker_index);
  sim::Task<void> flush_block(std::uint32_t worker_index,
                              const FlushItem& item);
  // Put the block back as dirty and queue `next` after `delay`, unless a
  // delete gets there first.
  sim::Task<void> requeue(BbBlockInfo& block, FlushItem next,
                          sim::SimTime delay);
  sim::Task<void> evict_worker();

  net::RpcHub* hub_;
  std::vector<net::NodeId> kv_servers_;
  CommonParams common_;
  sim::SimTime retry_base_ns_;
  lustre::LustreClient* lustre_;
  flowctl::CapacityController* flowctl_;
  MdState* md_;
  std::function<void(MdRecord)> journal_;
  std::function<bool()> outage_;
  std::uint32_t trace_track_;
  sim::TraceRecorder* trace_ = nullptr;
  std::vector<std::unique_ptr<kv::Client>> clients_;
  sim::Channel<FlushItem> queue_;
  sim::Condition flush_done_;
  std::uint64_t dirty_ = 0;  // blocks dirty or mid-flush
  MetricHandle<Gauge> queue_depth_{hub_->metrics(), "bb.flush_queue_depth"};
  MetricHandle<Counter> quarantined_{hub_->metrics(), "bb.quarantined_blocks"};
  MetricHandle<Counter> retries_{hub_->metrics(), "bb.flush.retries"};
  MetricHandle<Histogram> flush_ns_{hub_->metrics(), "bb.flush_ns"};
};

}  // namespace hpcbb::bb
