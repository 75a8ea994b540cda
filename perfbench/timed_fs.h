// A timing decorator over fs::FileSystem, Writer and Reader. Every call is
// forwarded unchanged (same arguments, same bytes, same status) and its
// simulated duration is appended to a CallTimes record. Reading the clock
// schedules nothing, so a decorated run is event-for-event identical to an
// undecorated one (perfbench_test checks this).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "storage/filesystem.h"

namespace hpcbb::perfbench {

// Simulated nanoseconds per call, in completion order.
struct CallTimes {
  std::vector<sim::SimTime> create, append, close, open, read;
};

class TimedWriter final : public fs::Writer {
 public:
  TimedWriter(std::unique_ptr<fs::Writer> inner, sim::Simulation& sim,
              CallTimes& times)
      : inner_(std::move(inner)), sim_(&sim), times_(&times) {}

  sim::Task<Status> append(BytesPtr data) override {
    const sim::SimTime t0 = sim_->now();
    Status st = co_await inner_->append(std::move(data));
    times_->append.push_back(sim_->now() - t0);
    co_return st;
  }

  sim::Task<Status> close() override {
    const sim::SimTime t0 = sim_->now();
    Status st = co_await inner_->close();
    times_->close.push_back(sim_->now() - t0);
    co_return st;
  }

 private:
  std::unique_ptr<fs::Writer> inner_;
  sim::Simulation* sim_;
  CallTimes* times_;
};

class TimedReader final : public fs::Reader {
 public:
  TimedReader(std::unique_ptr<fs::Reader> inner, sim::Simulation& sim,
              CallTimes& times)
      : inner_(std::move(inner)), sim_(&sim), times_(&times) {}

  sim::Task<Result<Bytes>> read(std::uint64_t offset,
                                std::uint64_t length) override {
    const sim::SimTime t0 = sim_->now();
    Result<Bytes> data = co_await inner_->read(offset, length);
    times_->read.push_back(sim_->now() - t0);
    co_return data;
  }

  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<fs::Reader> inner_;
  sim::Simulation* sim_;
  CallTimes* times_;
};

class TimedFileSystem final : public fs::FileSystem {
 public:
  TimedFileSystem(fs::FileSystem& inner, sim::Simulation& sim,
                  CallTimes& times)
      : inner_(&inner), sim_(&sim), times_(&times) {}

  sim::Task<Result<std::unique_ptr<fs::Writer>>> create(
      const std::string& path, net::NodeId client) override {
    const sim::SimTime t0 = sim_->now();
    auto writer = co_await inner_->create(path, client);
    times_->create.push_back(sim_->now() - t0);
    if (!writer.is_ok()) co_return writer.status();
    co_return std::unique_ptr<fs::Writer>(std::make_unique<TimedWriter>(
        std::move(writer).value(), *sim_, *times_));
  }

  sim::Task<Result<std::unique_ptr<fs::Reader>>> open(
      const std::string& path, net::NodeId client) override {
    const sim::SimTime t0 = sim_->now();
    auto reader = co_await inner_->open(path, client);
    times_->open.push_back(sim_->now() - t0);
    if (!reader.is_ok()) co_return reader.status();
    co_return std::unique_ptr<fs::Reader>(std::make_unique<TimedReader>(
        std::move(reader).value(), *sim_, *times_));
  }

  sim::Task<Result<fs::FileInfo>> stat(const std::string& path,
                                       net::NodeId client) override {
    co_return co_await inner_->stat(path, client);
  }
  sim::Task<Status> remove(const std::string& path,
                           net::NodeId client) override {
    co_return co_await inner_->remove(path, client);
  }
  sim::Task<Result<std::vector<std::string>>> list(
      const std::string& prefix, net::NodeId client) override {
    co_return co_await inner_->list(prefix, client);
  }
  sim::Task<Result<std::vector<std::vector<net::NodeId>>>> block_locations(
      const std::string& path, net::NodeId client) override {
    co_return co_await inner_->block_locations(path, client);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  fs::FileSystem* inner_;
  sim::Simulation* sim_;
  CallTimes* times_;
};

}  // namespace hpcbb::perfbench
