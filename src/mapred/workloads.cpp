#include "mapred/workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/strings.h"

namespace hpcbb::mapred {

namespace {

struct TaskTiming {
  sim::SimTime elapsed = 0;
  std::uint64_t bytes = 0;
  Status status;
};

DfsioResult summarize(const std::vector<TaskTiming>& timings,
                      sim::SimTime makespan) {
  DfsioResult result;
  result.elapsed_ns = makespan;
  double rate_sum = 0;
  for (const TaskTiming& t : timings) {
    result.bytes += t.bytes;
    rate_sum += throughput_mbps(t.bytes, t.elapsed);
  }
  result.aggregate_mbps = throughput_mbps(result.bytes, makespan);
  result.mean_task_mbps =
      timings.empty() ? 0.0 : rate_sum / static_cast<double>(timings.size());
  return result;
}

std::uint64_t file_seed(const std::string& path) { return fnv1a(path); }

}  // namespace

sim::Task<Result<DfsioResult>> dfsio_write(fs::FileSystem& fs,
                                           net::RpcHub& hub,
                                           std::vector<net::NodeId> nodes,
                                           const DfsioParams& params) {
  sim::Simulation& sim = hub.transport().fabric().simulation();
  const sim::SimTime started = sim.now();

  std::vector<sim::Task<TaskTiming>> tasks;
  for (std::uint32_t i = 0; i < params.files; ++i) {
    const std::string path = params.dir + "/io_file_" + std::to_string(i);
    const net::NodeId node = nodes[i % nodes.size()];
    tasks.push_back([](fs::FileSystem& f, sim::Simulation& s, std::string p,
                       net::NodeId n, std::uint64_t size,
                       std::uint64_t chunk) -> sim::Task<TaskTiming> {
      TaskTiming timing;
      const sim::SimTime t0 = s.now();
      auto writer = co_await f.create(p, n);
      if (!writer.is_ok()) {
        timing.status = writer.status();
        co_return timing;
      }
      const std::uint64_t seed = file_seed(p);
      for (std::uint64_t off = 0; off < size; off += chunk) {
        const std::uint64_t len = std::min(chunk, size - off);
        Status st = co_await writer.value()->append(
            make_bytes(pattern_bytes(seed, off, len)));
        if (!st.is_ok()) {
          timing.status = std::move(st);
          co_return timing;
        }
        timing.bytes += len;
      }
      timing.status = co_await writer.value()->close();
      timing.elapsed = s.now() - t0;
      co_return timing;
    }(fs, sim, path, node, params.file_size, params.io_chunk));
  }

  std::vector<TaskTiming> timings =
      co_await sim::parallel_collect(sim, std::move(tasks));
  for (const TaskTiming& t : timings) {
    if (!t.status.is_ok()) co_return t.status;
  }
  co_return summarize(timings, sim.now() - started);
}

sim::Task<Result<DfsioResult>> dfsio_read(fs::FileSystem& fs,
                                          net::RpcHub& hub,
                                          std::vector<net::NodeId> nodes,
                                          const DfsioParams& params) {
  sim::Simulation& sim = hub.transport().fabric().simulation();
  const sim::SimTime started = sim.now();

  std::vector<sim::Task<TaskTiming>> tasks;
  for (std::uint32_t i = 0; i < params.files; ++i) {
    const std::string path = params.dir + "/io_file_" + std::to_string(i);
    // Rotate: read from a different node than wrote the file.
    const net::NodeId node = nodes[(i + 1) % nodes.size()];
    tasks.push_back([](fs::FileSystem& f, sim::Simulation& s, std::string p,
                       net::NodeId n, std::uint64_t chunk,
                       bool verify) -> sim::Task<TaskTiming> {
      TaskTiming timing;
      const sim::SimTime t0 = s.now();
      auto reader = co_await f.open(p, n);
      if (!reader.is_ok()) {
        timing.status = reader.status();
        co_return timing;
      }
      const std::uint64_t size = reader.value()->size();
      const std::uint64_t seed = file_seed(p);
      for (std::uint64_t off = 0; off < size; off += chunk) {
        const std::uint64_t len = std::min(chunk, size - off);
        auto data = co_await reader.value()->read(off, len);
        if (!data.is_ok()) {
          timing.status = data.status();
          co_return timing;
        }
        if (verify && !verify_pattern(seed, off, data.value())) {
          timing.status = error(StatusCode::kDataLoss,
                                "content mismatch in " + p);
          co_return timing;
        }
        timing.bytes += len;
      }
      timing.status = Status::ok();
      timing.elapsed = s.now() - t0;
      co_return timing;
    }(fs, sim, path, node, params.io_chunk, params.verify_on_read));
  }

  std::vector<TaskTiming> timings =
      co_await sim::parallel_collect(sim, std::move(tasks));
  for (const TaskTiming& t : timings) {
    if (!t.status.is_ok()) co_return t.status;
  }
  co_return summarize(timings, sim.now() - started);
}

sim::Task<Result<GenerateResult>> generate_records_input(
    fs::FileSystem& fs, net::RpcHub& hub, std::vector<net::NodeId> nodes,
    const GenerateParams& params) {
  sim::Simulation& sim = hub.transport().fabric().simulation();
  const sim::SimTime started = sim.now();

  struct GenOut {
    Status status;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<sim::Task<GenOut>> tasks;
  for (std::uint32_t i = 0; i < params.files; ++i) {
    const std::string path = params.dir + "/part-" + std::to_string(i);
    const net::NodeId node = nodes[i % nodes.size()];
    const std::uint64_t seed = params.seed * 1000003 + i;
    tasks.push_back([](fs::FileSystem& f, std::string p, net::NodeId n,
                       std::uint64_t sd, std::uint64_t records,
                       std::uint64_t batch) -> sim::Task<GenOut> {
      GenOut out;
      auto writer = co_await f.create(p, n);
      if (!writer.is_ok()) {
        out.status = writer.status();
        co_return out;
      }
      for (std::uint64_t done = 0; done < records; done += batch) {
        const std::uint64_t n_rec = std::min(batch, records - done);
        Bytes data = generate_records(sd + done, n_rec);
        out.checksum += records_checksum(data);
        out.bytes += data.size();
        Status st = co_await writer.value()->append(make_bytes(std::move(data)));
        if (!st.is_ok()) {
          out.status = std::move(st);
          co_return out;
        }
      }
      out.status = co_await writer.value()->close();
      co_return out;
    }(fs, path, node, seed, params.records_per_file,
      params.io_chunk_records));
  }

  std::vector<GenOut> outs = co_await sim::parallel_collect(sim, std::move(tasks));
  GenerateResult result;
  for (const GenOut& out : outs) {
    if (!out.status.is_ok()) co_return out.status;
    result.bytes += out.bytes;
    result.checksum += out.checksum;
  }
  result.elapsed_ns = sim.now() - started;
  co_return result;
}

// ---- SortJob ----------------------------------------------------------------

void SortJob::map_chunk(const InputSplit& split,
                        std::span<const std::uint8_t> data,
                        std::vector<Bytes>& out) {
  (void)split;
  // Count first, so each bucket grows at most once per chunk and each
  // record is copied once.
  std::vector<std::uint64_t> need(reducers_, 0);
  for (std::uint64_t off = 0; off + kRecordSize <= data.size();
       off += kRecordSize) {
    need[partition_of(data.data() + off, reducers_)] += kRecordSize;
  }
  for (std::uint32_t p = 0; p < reducers_; ++p) {
    Bytes& bucket = out[p];
    const std::uint64_t size = bucket.size() + need[p];
    if (size > bucket.capacity()) {
      bucket.reserve(std::max<std::uint64_t>(size, 2 * bucket.capacity()));
    }
  }
  for (std::uint64_t off = 0; off + kRecordSize <= data.size();
       off += kRecordSize) {
    const std::uint8_t* rec = data.data() + off;
    Bytes& bucket = out[partition_of(rec, reducers_)];
    bucket.insert(bucket.end(), rec, rec + kRecordSize);
  }
}

namespace {

// One record's sort key: `hi` is key bytes 0-7 big-endian; `lo` is key bytes
// 8-9 above the record's input position, so (hi, lo) order is key order with
// ties broken by position, a stable sort.
struct SortEntry {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator<(const SortEntry& a, const SortEntry& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};
static_assert(kKeySize == 10);

}  // namespace

Result<Bytes> SortJob::reduce(std::uint32_t reducer,
                              std::span<const BytesPtr> parts) {
  (void)reducer;
  std::uint64_t count = 0;
  for (const BytesPtr& part : parts) {
    if (part->size() % kRecordSize != 0) {
      return error(StatusCode::kInternal, "torn record in sort input");
    }
    count += part->size() / kRecordSize;
  }
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    return error(StatusCode::kInvalidArgument,
                 "sort reducer input exceeds 2^32 records");
  }

  std::vector<const std::uint8_t*> records;
  std::vector<SortEntry> entries;
  records.reserve(count);
  entries.reserve(count);
  for (const BytesPtr& part : parts) {
    for (std::uint64_t off = 0; off < part->size(); off += kRecordSize) {
      const std::uint8_t* key = part->data() + off;
      std::uint64_t hi = 0;
      for (std::uint64_t b = 0; b < 8; ++b) hi = (hi << 8) | key[b];
      const std::uint64_t lo = (std::uint64_t{key[8]} << 40) |
                               (std::uint64_t{key[9]} << 32) | records.size();
      entries.push_back(SortEntry{hi, lo});
      records.push_back(key);
    }
  }

  // Bucket by the 16 bits just below the prefix every `hi` shares (a
  // reducer's keys share their range-partition prefix), then sort each
  // bucket. If all `hi` are equal, everything lands in one bucket.
  std::uint64_t differ = 0;
  for (const SortEntry& e : entries) differ |= e.hi ^ entries.front().hi;
  const int shift = std::max(0, 48 - std::countl_zero(differ));
  const auto bucket_of = [shift](const SortEntry& e) {
    return static_cast<std::uint32_t>((e.hi >> shift) & 0xFFFF);
  };
  std::vector<std::uint32_t> start(0x10001, 0);
  for (const SortEntry& e : entries) ++start[bucket_of(e) + 1];
  for (std::uint32_t b = 1; b <= 0x10000; ++b) start[b] += start[b - 1];
  std::vector<SortEntry> sorted(count);
  {
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    for (const SortEntry& e : entries) sorted[next[bucket_of(e)]++] = e;
  }
  entries = {};
  for (std::uint32_t b = 0; b < 0x10000; ++b) {
    if (start[b + 1] - start[b] > 1) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(start[b]),
                sorted.begin() + static_cast<std::ptrdiff_t>(start[b + 1]));
    }
  }

  Bytes out;
  out.reserve(count * kRecordSize);
  for (const SortEntry& e : sorted) {
    const std::uint8_t* rec = records[e.lo & 0xFFFFFFFFu];
    out.insert(out.end(), rec, rec + kRecordSize);
  }
  return out;
}

std::uint64_t SortJob::reduce_cpu_ns(std::uint64_t bytes) const {
  const std::uint64_t records = bytes / kRecordSize;
  if (records < 2) return 100;
  // n log2 n comparisons at ~60 ns per record-compare-and-move.
  std::uint64_t log2n = 1;
  while ((1ull << log2n) < records) ++log2n;
  return static_cast<std::uint64_t>(
      cpu_scale_ * static_cast<double>(records * log2n * 60));
}

// ---- GrepJob ----------------------------------------------------------------

void GrepJob::map_chunk(const InputSplit& split,
                        std::span<const std::uint8_t> data,
                        std::vector<Bytes>& out) {
  (void)split;
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i + 1 < data.size(); ++i) {
    if (data[i] == b0_ && data[i + 1] == b1_) ++matches;
  }
  Bytes& bucket = out[0];
  for (int b = 0; b < 8; ++b) {
    bucket.push_back(static_cast<std::uint8_t>(matches >> (8 * b)));
  }
}

Result<Bytes> GrepJob::reduce(std::uint32_t reducer,
                              std::span<const BytesPtr> parts) {
  (void)reducer;
  std::uint64_t total = 0;
  for (const BytesPtr& part : parts) {
    if (part->size() % 8 != 0) {
      return error(StatusCode::kInternal, "torn count in grep input");
    }
    for (std::size_t off = 0; off < part->size(); off += 8) {
      total += load_le(part->data() + off);
    }
  }
  total_matches_ = total;
  Bytes out;
  const std::string text = "matches=" + std::to_string(total) + "\n";
  out.assign(text.begin(), text.end());
  return out;
}

// ---- ByteHistogramJob --------------------------------------------------------

namespace {
void encode_u64(Bytes& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}
}  // namespace

void ByteHistogramJob::map_chunk(const InputSplit& split,
                                 std::span<const std::uint8_t> data,
                                 std::vector<Bytes>& out) {
  (void)split;
  // Combiner: aggregate locally, emit one partial histogram per chunk.
  std::array<std::uint64_t, 256> bins{};
  for (const std::uint8_t byte : data) ++bins[byte];
  for (std::uint32_t r = 0; r < reducers_; ++r) {
    const auto [first, last] = bin_range(r);
    for (std::uint32_t bin = first; bin < last; ++bin) {
      if (bins[bin] == 0) continue;
      Bytes& bucket = out[r];
      bucket.push_back(static_cast<std::uint8_t>(bin));
      encode_u64(bucket, bins[bin]);
    }
  }
}

Result<Bytes> ByteHistogramJob::reduce(std::uint32_t reducer,
                                       std::span<const BytesPtr> parts) {
  std::array<std::uint64_t, 256> bins{};
  for (const BytesPtr& part : parts) {
    if (part->size() % 9 != 0) {
      return error(StatusCode::kInternal, "torn histogram entry");
    }
    for (std::size_t off = 0; off < part->size(); off += 9) {
      bins[(*part)[off]] += load_le(part->data() + off + 1);
    }
  }
  const auto [first, last] = bin_range(reducer);
  Bytes out;
  for (std::uint32_t bin = first; bin < last; ++bin) {
    const std::string line =
        std::to_string(bin) + "\t" + std::to_string(bins[bin]) + "\n";
    out.insert(out.end(), line.begin(), line.end());
    total_count_ += bins[bin];
  }
  return out;
}

}  // namespace hpcbb::mapred
