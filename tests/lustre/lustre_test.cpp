// Lustre stack tests: MDS namespace + striping math + OSS contention +
// end-to-end FileSystem behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "testing/co_assert.h"
#include "common/units.h"
#include "lustre/client.h"
#include "lustre/mds.h"
#include "lustre/oss.h"
#include "sim/sync.h"

namespace hpcbb::lustre {
namespace {

using namespace hpcbb::duration;  // NOLINT
using net::NodeId;
using sim::Simulation;
using sim::Task;

// Node layout: 0..3 clients, 4 = MDS, 5.. = OSS.
struct Rig {
  Simulation sim;
  net::Fabric fabric;
  net::Transport transport;
  net::RpcHub hub;
  std::vector<std::unique_ptr<Oss>> osses;
  std::unique_ptr<Mds> mds;
  LustreFileSystem fs;

  explicit Rig(std::uint32_t n_oss = 2, std::uint32_t osts_per_oss = 2)
      : fabric(sim, 5 + n_oss, net::FabricParams{}),
        transport(fabric, net::transport_preset(net::TransportKind::kRdma)),
        hub(transport),
        fs(hub, 4) {
    std::vector<OstTarget> targets;
    for (std::uint32_t i = 0; i < n_oss; ++i) {
      OssParams op;
      op.ost_count = osts_per_oss;
      osses.push_back(std::make_unique<Oss>(hub, 5 + i, op));
      for (std::uint32_t t = 0; t < osts_per_oss; ++t) {
        targets.push_back(OstTarget{5 + i, t});
      }
    }
    mds = std::make_unique<Mds>(hub, 4, targets, MdsParams{});
  }
};

TEST(LustreTest, WriteReadRoundTrip) {
  Rig rig;
  Bytes got;
  rig.sim.spawn([](Rig& r, Bytes& out) -> Task<void> {
    auto w = co_await r.fs.create("/data/f1", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(1, 0, 3 * MiB + 123))));
    CO_ASSERT_OK(co_await w.value()->close());

    auto rd = co_await r.fs.open("/data/f1", 1);  // another client reads
    CO_ASSERT_OK(rd);
    CO_ASSERT(rd.value()->size() == 3 * MiB + 123);
    auto data = co_await rd.value()->read(0, 3 * MiB + 123);
    CO_ASSERT_OK(data);
    out = std::move(data).value();
  }(rig, got));
  rig.sim.run();
  ASSERT_EQ(got.size(), 3 * MiB + 123);
  EXPECT_TRUE(verify_pattern(1, 0, got));
}

TEST(LustreTest, StripesSpreadAcrossOsts) {
  Rig rig(2, 2);
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto w = co_await r.fs.create("/striped", 0);
    CO_ASSERT_OK(w);
    // 8 MiB over 4 OSTs at 1 MiB stripes: every OSS gets data.
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(2, 0, 8 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.osses[0]->used_bytes() + rig.osses[1]->used_bytes(), 8 * MiB);
  EXPECT_GT(rig.osses[0]->used_bytes(), 0u);
  EXPECT_GT(rig.osses[1]->used_bytes(), 0u);
}

TEST(LustreTest, PartialAndUnalignedReads) {
  Rig rig;
  Bytes got;
  rig.sim.spawn([](Rig& r, Bytes& out) -> Task<void> {
    auto w = co_await r.fs.create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(3, 0, 4 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    auto rd = co_await r.fs.open("/f", 2);
    CO_ASSERT_OK(rd);
    // Crosses two stripe boundaries at an unaligned offset.
    auto data = co_await rd.value()->read(1 * MiB - 777, 2 * MiB + 1000);
    CO_ASSERT_OK(data);
    out = std::move(data).value();
  }(rig, got));
  rig.sim.run();
  ASSERT_EQ(got.size(), 2 * MiB + 1000);
  EXPECT_TRUE(verify_pattern(3, 1 * MiB - 777, got));
}

TEST(LustreTest, ReadPastEofTruncatesOrFails) {
  Rig rig;
  StatusCode past{};
  std::size_t short_read = 0;
  rig.sim.spawn([](Rig& r, StatusCode& p, std::size_t& n) -> Task<void> {
    auto w = co_await r.fs.create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(make_bytes(pattern_bytes(4, 0, 1000))));
    CO_ASSERT_OK(co_await w.value()->close());
    auto rd = co_await r.fs.open("/f", 0);
    CO_ASSERT_OK(rd);
    p = (co_await rd.value()->read(2000, 10)).code();
    auto data = co_await rd.value()->read(500, 10000);  // short read
    CO_ASSERT_OK(data);
    n = data.value().size();
  }(rig, past, short_read));
  rig.sim.run();
  EXPECT_EQ(past, StatusCode::kOutOfRange);
  EXPECT_EQ(short_read, 500u);
}

TEST(LustreTest, NamespaceOperations) {
  Rig rig;
  std::vector<std::string> listed;
  StatusCode dup{}, gone{};
  rig.sim.spawn([](Rig& r, std::vector<std::string>& ls, StatusCode& d,
                   StatusCode& g) -> Task<void> {
    for (const char* p : {"/a/x", "/a/y", "/b/z"}) {
      auto w = co_await r.fs.create(p, 0);
      CO_ASSERT_OK(w);
      CO_ASSERT_OK(co_await w.value()->close());
    }
    d = (co_await r.fs.create("/a/x", 0)).code();
    auto l = co_await r.fs.list("/a", 0);
    CO_ASSERT_OK(l);
    ls = l.value();
    CO_ASSERT_OK(co_await r.fs.remove("/a/x", 0));
    g = (co_await r.fs.open("/a/x", 0)).code();
  }(rig, listed, dup, gone));
  rig.sim.run();
  EXPECT_EQ(dup, StatusCode::kAlreadyExists);
  EXPECT_EQ(listed, (std::vector<std::string>{"/a/x", "/a/y"}));
  EXPECT_EQ(gone, StatusCode::kNotFound);
}

TEST(LustreTest, RemoveFreesOssSpace) {
  Rig rig;
  rig.sim.spawn([](Rig& r) -> Task<void> {
    auto w = co_await r.fs.create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(make_bytes(pattern_bytes(5, 0, 4 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    CO_ASSERT_OK(co_await r.fs.remove("/f", 0));
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.osses[0]->used_bytes(), 0u);
  EXPECT_EQ(rig.osses[1]->used_bytes(), 0u);
}

TEST(LustreTest, NoNodeLocalPlacement) {
  Rig rig;
  std::vector<std::vector<NodeId>> locs;
  rig.sim.spawn([](Rig& r, std::vector<std::vector<NodeId>>& out) -> Task<void> {
    auto w = co_await r.fs.create("/f", 0);
    CO_ASSERT_OK(w);
    CO_ASSERT_OK(co_await w.value()->append(
        make_bytes(pattern_bytes(6, 0, 200 * MiB))));
    CO_ASSERT_OK(co_await w.value()->close());
    auto l = co_await r.fs.block_locations("/f", 0);
    CO_ASSERT_OK(l);
    out = l.value();
  }(rig, locs));
  rig.sim.run();
  ASSERT_EQ(locs.size(), 2u);  // 200 MiB / 128 MiB nominal blocks
  for (const auto& nodes : locs) EXPECT_TRUE(nodes.empty());
}

TEST(LustreTest, SharedOssContentionSlowsConcurrentWriters) {
  // One writer alone vs four concurrent writers: aggregate bandwidth is
  // capped by the OSS disk arrays, so each of the four runs slower.
  auto run = [](int writers) {
    Rig rig(2, 2);
    for (int wtr = 0; wtr < writers; ++wtr) {
      rig.sim.spawn([](Rig& r, int id) -> Task<void> {
        auto w = co_await r.fs.create("/f" + std::to_string(id),
                                      static_cast<NodeId>(id));
        CO_ASSERT_OK(w);
        for (int i = 0; i < 8; ++i) {
          CO_ASSERT_OK(co_await w.value()->append(
              make_bytes(pattern_bytes(static_cast<std::uint64_t>(id), 0,
                                       8 * MiB))));
        }
        CO_ASSERT_OK(co_await w.value()->close());
      }(rig, wtr));
    }
    rig.sim.run();
    return rig.sim.now();
  };
  const auto t1 = run(1);
  const auto t4 = run(4);
  EXPECT_GT(static_cast<double>(t4), 2.0 * static_cast<double>(t1));
}

// 768 KiB pieces against 1 MiB stripes: most stripes straddle two pieces.
TEST(LustreTest, PieceWritesStraddlingStripesReadBackExactly) {
  Rig rig;
  constexpr std::uint64_t kPiece = 768 * KiB;
  constexpr std::uint64_t kSize = 12 * kPiece;
  Bytes got;
  rig.sim.spawn([](Rig& r, Bytes& out) -> Task<void> {
    LustreClient& client = r.fs.client();
    auto layout = co_await client.create(0, "/pieces");
    CO_ASSERT_OK(layout);
    std::vector<ByteSlice> pieces;
    for (std::uint64_t at = 0; at < kSize; at += kPiece) {
      if (at == 4 * kPiece) {
        // One piece is a slice from the middle of a larger buffer.
        Bytes framed(kPiece + 3000, 0xEE);
        const Bytes body = pattern_bytes(5, at, kPiece);
        std::copy(body.begin(), body.end(), framed.begin() + 1000);
        pieces.push_back(
            ByteSlice{make_bytes(std::move(framed)), 1000, kPiece});
      } else {
        pieces.push_back(whole(make_bytes(pattern_bytes(5, at, kPiece))));
      }
    }
    CO_ASSERT_OK(
        co_await client.write(0, layout.value(), 0, std::move(pieces)));
    CO_ASSERT_OK(co_await client.set_size(0, "/pieces", kSize));
    auto rd = co_await r.fs.open("/pieces", 1);
    CO_ASSERT_OK(rd);
    auto data = co_await rd.value()->read(0, kSize);
    CO_ASSERT_OK(data);
    out = std::move(data).value();
  }(rig, got));
  rig.sim.run();
  ASSERT_EQ(got.size(), kSize);
  EXPECT_TRUE(verify_pattern(5, 0, got));
  EXPECT_EQ(rig.sim.metrics().counter_value("lustre.write_bytes"), kSize);
}

sim::Task<net::RpcResponse> record_write(
    std::vector<std::shared_ptr<const OssWriteRequest>>& seen,
    std::shared_ptr<const OssWriteRequest> req) {
  seen.push_back(std::move(req));
  co_return net::RpcResponse{Status::ok(), nullptr, kHeaderBytes};
}

// A stripe inside one piece ships as a slice of that piece's buffer, and
// its request is sized by the slice, not by the buffer behind it.
TEST(LustreTest, StripesShipAsSlicesSizedByTheirBytes) {
  Simulation sim;
  net::Fabric fabric(sim, 2, net::FabricParams{});
  net::Transport transport(fabric,
                           net::transport_preset(net::TransportKind::kRdma));
  net::RpcHub hub(transport);
  std::vector<std::shared_ptr<const OssWriteRequest>> seen;
  hub.bind(1, kOssWrite, net::typed_handler<OssWriteRequest>([&seen](auto req) {
             return record_write(seen, std::move(req));
           }));
  FileLayout layout;
  layout.path = "/spy";
  layout.stripe_size = 1 * MiB;
  layout.targets = {OstTarget{1, 0}, OstTarget{1, 1}};

  // Stripes 0 and 2 lie inside one piece each; 1 and 3 straddle two.
  Bytes framed(3 * MiB / 2, 0xEE);
  const Bytes third = pattern_bytes(6, 2 * MiB, 1 * MiB);
  std::copy(third.begin(), third.end(), framed.begin() + MiB / 2);
  const std::vector<ByteSlice> pieces = {
      whole(make_bytes(pattern_bytes(6, 0, 1 * MiB))),
      whole(make_bytes(pattern_bytes(6, 1 * MiB, 768 * KiB))),
      whole(make_bytes(pattern_bytes(6, 1 * MiB + 768 * KiB, 256 * KiB))),
      ByteSlice{make_bytes(std::move(framed)), MiB / 2, 1 * MiB},
      whole(make_bytes(pattern_bytes(6, 3 * MiB, MiB / 2 + 100))),
      whole(make_bytes(
          pattern_bytes(6, 3 * MiB + MiB / 2 + 100, MiB / 2 - 100))),
  };
  LustreClient client(hub, 0);
  Status status = error(StatusCode::kInternal, "not run");
  sim.spawn([](LustreClient& c, const FileLayout& l,
               std::vector<ByteSlice> p, Status& out) -> Task<void> {
    out = co_await c.write(0, l, 0, std::move(p));
  }(client, layout, pieces, status));
  sim.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_EQ(seen.size(), 4u);
  std::sort(seen.begin(), seen.end(), [](const auto& a, const auto& b) {
    return std::pair(a->offset, a->ost_index) <
           std::pair(b->offset, b->ost_index);
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const OssWriteRequest& req = *seen[i];
    EXPECT_EQ(req.data.length, 1 * MiB);
    EXPECT_EQ(req.wire_size(), kHeaderBytes + req.object.size() + 1 * MiB);
    EXPECT_TRUE(verify_pattern(6, i * MiB, req.data.span())) << "stripe " << i;
  }
  EXPECT_EQ(seen[0]->data.bytes, pieces[0].bytes);
  EXPECT_EQ(seen[2]->data.bytes, pieces[3].bytes);
  EXPECT_EQ(seen[2]->data.offset, MiB / 2);
  for (const std::size_t straddler : {1u, 3u}) {
    for (const ByteSlice& piece : pieces) {
      EXPECT_NE(seen[straddler]->data.bytes, piece.bytes);
    }
  }
}

}  // namespace
}  // namespace hpcbb::lustre
