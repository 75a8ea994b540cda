#include "net/rpc.h"

#include <gtest/gtest.h>

#include "testing/co_assert.h"
#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::net {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::Task;

struct EchoRequest {
  std::string text;
  [[nodiscard]] std::uint64_t wire_size() const { return 48 + text.size(); }
};

struct EchoReply {
  std::string text;
  [[nodiscard]] std::uint64_t wire_size() const { return 48 + text.size(); }
};

struct Rig {
  Simulation sim;
  Fabric fabric{sim, 4, FabricParams{}};
  Transport transport{fabric, transport_preset(TransportKind::kRdma)};
  RpcHub hub{transport};
};

TEST(RpcTest, RoundTripTypedCall) {
  Rig rig;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [](std::shared_ptr<const EchoRequest> req) -> Task<RpcResponse> {
        auto reply = std::make_shared<EchoReply>();
        reply->text = req->text + "!";
        co_return rpc_ok(std::move(reply));
      }));

  std::string got;
  rig.sim.spawn([](Rig& r, std::string& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"ping"});
    auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
    CO_ASSERT(result.is_ok());
    out = result.value()->text;
  }(rig, got));
  rig.sim.run();
  EXPECT_EQ(got, "ping!");
  EXPECT_GT(rig.sim.now(), 0u);  // wire time elapsed
}

TEST(RpcTest, UnboundPortRefusesConnection) {
  Rig rig;
  Status status;
  rig.sim.spawn([](Rig& r, Status& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    auto result = co_await r.hub.call<EchoReply>(0, 1, 7000, req);
    out = result.status();
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(RpcTest, DownNodeUnavailable) {
  Rig rig;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_return RpcResponse{Status::ok(), nullptr, 48};
      }));
  rig.fabric.set_node_up(1, false);
  Status status;
  rig.sim.spawn([](Rig& r, Status& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req)).status();
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(RpcTest, ApplicationErrorPropagates) {
  Rig rig;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_return rpc_error(error(StatusCode::kNotFound, "nope"));
      }));
  Status status;
  rig.sim.spawn([](Rig& r, Status& out) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    out = (co_await r.hub.call<EchoReply>(0, 1, 7000, req)).status();
  }(rig, status));
  rig.sim.run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(RpcTest, HandlerCanDelaySimulatingServiceTime) {
  Rig rig;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [&rig](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_await rig.sim.delay(5 * ms);
        co_return RpcResponse{Status::ok(), nullptr, 48};
      }));
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
    (void)co_await r.hub.call<EchoReply>(0, 1, 7000, req);
  }(rig));
  rig.sim.run();
  EXPECT_GE(rig.sim.now(), 5 * ms);
  EXPECT_LT(rig.sim.now(), 6 * ms);
}

TEST(RpcTest, ConcurrentCallsInterleave) {
  Rig rig;
  int handled = 0;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [&](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_await rig.sim.delay(10 * ms);
        ++handled;
        co_return RpcResponse{Status::ok(), nullptr, 48};
      }));
  for (NodeId src : {0u, 2u, 3u}) {
    rig.sim.spawn([](Rig& r, NodeId s) -> Task<void> {
      auto req = std::make_shared<const EchoRequest>(EchoRequest{"x"});
      (void)co_await r.hub.call<EchoReply>(s, 1, 7000, req);
    }(rig, src));
  }
  rig.sim.run();
  EXPECT_EQ(handled, 3);
  // Handlers ran concurrently (each a separate coroutine chain), so total
  // time is ~10 ms, not 30 ms.
  EXPECT_LT(rig.sim.now(), 12 * ms);
}

TEST(RpcTest, UnbindStopsService) {
  Rig rig;
  rig.hub.bind(1, 7000, typed_handler<EchoRequest>(
      [](std::shared_ptr<const EchoRequest>) -> Task<RpcResponse> {
        co_return RpcResponse{Status::ok(), nullptr, 48};
      }));
  EXPECT_TRUE(rig.hub.is_bound(1, 7000));
  rig.hub.unbind(1, 7000);
  EXPECT_FALSE(rig.hub.is_bound(1, 7000));
}

}  // namespace
}  // namespace hpcbb::net
