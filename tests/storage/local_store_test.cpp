#include "storage/local_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "testing/co_assert.h"
#include "common/corrupt.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/sync.h"

namespace hpcbb::storage {
namespace {

using namespace hpcbb::duration;  // NOLINT
using sim::Simulation;
using sim::Task;

DeviceParams small_ram() {
  DeviceParams p = ramdisk_preset(4 * MiB);
  return p;
}

// A sender's buffer, as the slice covering all of it.
ByteSlice sent(Bytes bytes) { return whole(make_bytes(std::move(bytes))); }

// Do `pieces`, laid back to back, hold exactly `want`?
bool pieces_equal(const std::vector<ByteSlice>& pieces,
                  std::span<const std::uint8_t> want) {
  std::uint64_t at = 0;
  for (const ByteSlice& piece : pieces) {
    if (at + piece.length > want.size() ||
        !std::equal(piece.span().begin(), piece.span().end(),
                    want.begin() + static_cast<std::ptrdiff_t>(at))) {
      return false;
    }
    at += piece.length;
  }
  return at == want.size();
}

std::uint32_t crc_of(const std::vector<ByteSlice>& pieces) {
  std::uint32_t crc = 0;
  for (const ByteSlice& piece : pieces) {
    crc = crc32c(crc, piece.span().data(), piece.length);
  }
  return crc;
}

TEST(LocalStoreTest, AppendReadRoundTrip) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  const Bytes payload = pattern_bytes(11, 0, 1000);
  Bytes got;
  sim.spawn([](LocalStore& ls, const Bytes& data, Bytes& out) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("blk_1", sent(data)));
    auto r = co_await ls.read("blk_1", 0, data.size());
    CO_ASSERT(r.is_ok());
    out = gather(r.value());
  }(store, payload, got));
  sim.run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(store.object_size("blk_1"), 1000u);
  EXPECT_EQ(store.used_bytes(), 1000u);
}

TEST(LocalStoreTest, MultipleAppendsConcatenate) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("obj", sent(pattern_bytes(5, 0, 100))));
    CO_ASSERT_OK(co_await ls.append("obj", sent(pattern_bytes(5, 100, 60))));
    auto r = co_await ls.read("obj", 0, 160);
    CO_ASSERT(r.is_ok());
    out = gather(r.value());
  }(store, got));
  sim.run();
  EXPECT_TRUE(verify_pattern(5, 0, got));
}

TEST(LocalStoreTest, PartialReads) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("obj", sent(pattern_bytes(9, 0, 4096))));
    auto r = co_await ls.read("obj", 1024, 512);
    CO_ASSERT(r.is_ok());
    out = gather(r.value());
  }(store, got));
  sim.run();
  EXPECT_TRUE(verify_pattern(9, 1024, got));
}

TEST(LocalStoreTest, ReadErrors) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  StatusCode missing{}, range{};
  sim.spawn([](LocalStore& ls, StatusCode& m, StatusCode& r) -> Task<void> {
    m = (co_await ls.read("ghost", 0, 1)).code();
    CO_ASSERT_OK(co_await ls.append("obj", sent(pattern_bytes(1, 0, 10))));
    r = (co_await ls.read("obj", 5, 10)).code();
  }(store, missing, range));
  sim.run();
  EXPECT_EQ(missing, StatusCode::kNotFound);
  EXPECT_EQ(range, StatusCode::kOutOfRange);
}

TEST(LocalStoreTest, RemoveFreesSpace) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("a", sent(pattern_bytes(1, 0, 2048))));
  }(store));
  sim.run();
  EXPECT_EQ(store.used_bytes(), 2048u);
  EXPECT_TRUE(store.remove("a").is_ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.remove("a").code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, CapacityExhaustion) {
  Simulation sim;
  Device dev(sim, small_ram());  // 4 MiB
  LocalStore store(dev);
  Status status;
  sim.spawn([](LocalStore& ls, Status& out) -> Task<void> {
    CO_ASSERT(
        (co_await ls.append("a", sent(pattern_bytes(1, 0, 3 * MiB)))).is_ok());
    out = co_await ls.append("b", sent(pattern_bytes(2, 0, 2 * MiB)));
  }(store, status));
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(store.contains("b"));
}

TEST(LocalStoreTest, WipeDropsEverythingInstantly) {
  Simulation sim;
  Device dev(sim, small_ram());
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("a", sent(pattern_bytes(1, 0, 100))));
    CO_ASSERT_OK(co_await ls.append("b", sent(pattern_bytes(2, 0, 100))));
  }(store));
  sim.run();
  store.wipe();
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(LocalStoreTest, DeviceTimeCharged) {
  Simulation sim;
  DeviceParams p = small_ram();
  p.write_bytes_per_sec = 1 * MB;
  p.seek_ns = 0;
  Device dev(sim, p);
  LocalStore store(dev);
  sim.spawn([](LocalStore& ls) -> Task<void> {
    CO_ASSERT_OK(co_await ls.append("a", sent(pattern_bytes(1, 0, 1 * MB))));
  }(store));
  sim.run();
  EXPECT_EQ(sim.now(), 1 * sec);
}

TEST(LocalStoreTest, GapBeyondAPartialLastPageReadsZero) {
  // The first write leaves its last page half used; growing past it must
  // zero the rest of that page, whatever the allocator handed out.
  Simulation sim;
  Device dev(sim, ramdisk_preset(32 * MiB));
  LocalStore store(dev);
  Bytes got;
  sim.spawn([](LocalStore& ls, Bytes& out) -> Task<void> {
    // Leave freed pages full of nonzero bytes below a live object, where
    // the allocator is likely to hand them out again.
    for (const char* name : {"junk", "filler", "guard"}) {
      CO_ASSERT_OK(
          co_await ls.write_at(name, 0, sent(pattern_bytes(1, 0, 4 * MiB))));
    }
    CO_ASSERT_OK(ls.remove("junk"));
    CO_ASSERT_OK(ls.remove("filler"));
    CO_ASSERT_OK(
        co_await ls.write_at("obj", 0, sent(pattern_bytes(3, 0, 3 * MiB / 2))));
    CO_ASSERT_OK(
        co_await ls.write_at("obj", 3 * MiB, sent(pattern_bytes(3, 0, 10))));
    auto r = co_await ls.read("obj", 3 * MiB / 2, 3 * MiB / 2);
    CO_ASSERT_OK(r);
    out = gather(r.value());
  }(store, got));
  sim.run();
  ASSERT_EQ(got.size(), 3 * MiB / 2);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(LocalStoreTest, SmallAppendsWidenTheLastPageWithoutLosingBytes) {
  // The last page is sized to what it holds, so small appends widen it
  // again and again, and appends past a page boundary fill it out first.
  Simulation sim;
  Device dev(sim, ramdisk_preset(32 * MiB));
  LocalStore store(dev);
  Bytes got;
  const std::uint64_t kAppend = 1000;
  const std::uint64_t kTotal = 2 * LocalStore::kPageSize + 12345;
  sim.spawn([](LocalStore& ls, Bytes& out, std::uint64_t step,
               std::uint64_t total) -> Task<void> {
    for (std::uint64_t at = 0; at < total; at += step) {
      CO_ASSERT_OK(co_await ls.append(
          "obj", sent(pattern_bytes(5, at, std::min(step, total - at)))));
    }
    auto r = co_await ls.read("obj", 0, total);
    CO_ASSERT_OK(r);
    out = gather(r.value());
  }(store, got, kAppend, kTotal));
  sim.run();
  EXPECT_EQ(store.object_size("obj"), kTotal);
  EXPECT_TRUE(verify_pattern(5, 0, got));
}

// Differential test of the paged object layout against a flat buffer per
// object: seeded out-of-order write_at calls with gaps, whole-page writes
// kept as slices of the sender's buffer, appends, removals and reads that
// cross page boundaries, then every corruption hook applied to both. Some
// reads are held to the end: their pieces must still hold what the object
// held when they were taken, and no sender's buffer may ever change.
class LocalStoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LocalStoreModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST_P(LocalStoreModelTest, MatchesAFlatReferenceByteForByte) {
  Simulation sim;
  Device dev(sim, ramdisk_preset(256 * MiB));
  LocalStore store(dev);
  std::map<std::string, Bytes> model;
  sim.spawn([](LocalStore& ls, std::map<std::string, Bytes>& ref,
               std::uint64_t seed) -> Task<void> {
    Rng rng(seed);
    const std::uint64_t kPage = LocalStore::kPageSize;
    // Offsets and lengths cluster around page boundaries.
    const auto position = [&rng, kPage](std::uint64_t limit) {
      const std::uint64_t page = rng.uniform(0, limit / kPage);
      const std::uint64_t jitter = rng.uniform(0, 4096);
      const std::uint64_t near =
          rng.uniform(0, 1) == 0 ? page * kPage + jitter
                                 : (page + 1) * kPage - std::min(jitter, kPage);
      return std::min(near, limit);
    };
    // Every buffer handed to the store, beside the CRC of what it held.
    std::vector<std::pair<std::weak_ptr<const Bytes>, std::uint32_t>> senders;
    const auto send = [&senders](Bytes bytes) {
      BytesPtr buffer = make_bytes(std::move(bytes));
      senders.emplace_back(buffer, crc32c(*buffer));
      return buffer;
    };
    // Reads held to the end, beside the CRC of the bytes they returned.
    std::vector<std::pair<std::vector<ByteSlice>, std::uint32_t>> held;
    const auto write_ref = [&ref](const std::string& name,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> data) {
      Bytes& flat = ref[name];
      if (offset + data.size() > flat.size()) {
        flat.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(),
                flat.begin() + static_cast<std::ptrdiff_t>(offset));
    };
    for (int op = 0; op < 300; ++op) {
      const std::string name = "obj" + std::to_string(rng.uniform(0, 3));
      const std::uint64_t kind = rng.uniform(0, 11);
      if (kind <= 2) {
        const std::uint64_t offset = position(5 * kPage);
        const ByteSlice data =
            whole(send(pattern_bytes(rng.next(), offset, position(2 * kPage))));
        CO_ASSERT_OK(co_await ls.write_at(name, offset, data));
        write_ref(name, offset, data.span());
      } else if (kind <= 4) {
        // Page-aligned, from inside a larger buffer: whole pages become
        // slices of it, a partial last page is copied unless it ends the
        // object.
        const std::uint64_t offset = rng.uniform(0, 4) * kPage;
        const std::uint64_t length = rng.uniform(0, 1) == 0
                                         ? rng.uniform(1, 2) * kPage
                                         : position(2 * kPage) + 1;
        const std::uint64_t head = rng.uniform(0, 4096);
        const ByteSlice data{
            send(pattern_bytes(rng.next(), 0,
                               head + length + rng.uniform(0, 64))),
            head, length};
        CO_ASSERT_OK(co_await ls.write_at(name, offset, data));
        write_ref(name, offset, data.span());
      } else if (kind <= 6) {
        const ByteSlice data =
            whole(send(pattern_bytes(rng.next(), 0, position(kPage))));
        CO_ASSERT_OK(co_await ls.append(name, data));
        Bytes& flat = ref[name];
        flat.insert(flat.end(), data.span().begin(), data.span().end());
      } else if (kind == 7) {
        // Frees pages still holding bytes, for later objects to reuse.
        if (ls.contains(name)) {
          CO_ASSERT_OK(ls.remove(name));
        }
        ref.erase(name);
      } else if (const Bytes& flat = ref[name]; !flat.empty()) {
        const std::uint64_t offset = rng.uniform(0, flat.size() - 1);
        const std::uint64_t length =
            std::min(flat.size() - offset, position(3 * kPage));
        auto got = co_await ls.read(name, offset, length);
        CO_ASSERT_OK(got);
        const std::span<const std::uint8_t> want(flat.data() + offset,
                                                 length);
        CO_ASSERT(pieces_equal(got.value(), want));
        if (kind == 11) held.emplace_back(std::move(got).value(), crc32c(want));
      }
    }
    std::uint64_t used = 0;
    for (auto& [name, flat] : ref) {
      if (!ls.contains(name)) continue;
      used += flat.size();
      CO_ASSERT(ls.object_size(name) == flat.size());
      for (const CorruptKind kind :
           {CorruptKind::kBitFlip, CorruptKind::kTornWrite,
            CorruptKind::kStaleRead}) {
        const std::uint64_t selector = rng.next();
        CO_ASSERT(ls.corrupt_one(name, selector, kind) ==
                  (apply_corruption(flat, kind, selector) ? name : ""));
      }
      const std::uint64_t index = rng.uniform(0, flat.size());
      ls.flip_byte(name, index);
      if (index < flat.size()) flat[index] ^= 0xFF;
      auto all = co_await ls.read(name, 0, flat.size());
      CO_ASSERT_OK(all);
      CO_ASSERT(pieces_equal(all.value(), flat));
    }
    CO_ASSERT(ls.used_bytes() == used);
    for (const auto& [pieces, crc] : held) {
      CO_ASSERT(crc_of(pieces) == crc);
    }
    // A buffer the store still holds is as it was sent.
    for (const auto& [sender, crc] : senders) {
      if (const BytesPtr buffer = sender.lock()) {
        CO_ASSERT(crc32c(*buffer) == crc);
      }
    }
  }(store, model, GetParam()));
  sim.run();
}

// Writes `bytes`, longer than a page, to "obj": its first page as a
// whole-page slice of the sender's buffer, the rest into a page the store
// owns. The rest goes in two appends: the first ends the object, so it is
// kept as a slice, and the second copies that slice into an owned page.
Task<void> write_mixed(LocalStore& ls, Bytes bytes) {
  const auto page = static_cast<std::ptrdiff_t>(LocalStore::kPageSize);
  const auto size = static_cast<std::ptrdiff_t>(bytes.size());
  const auto half = page + (size - page) / 2;
  CO_ASSERT_OK(co_await ls.write_at(
      "obj", 0, sent(Bytes(bytes.begin(), bytes.begin() + page))));
  CO_ASSERT_OK(co_await ls.append(
      "obj", sent(Bytes(bytes.begin() + page, bytes.begin() + half))));
  CO_ASSERT_OK(co_await ls.append(
      "obj", sent(Bytes(bytes.begin() + half, bytes.end()))));
}

TEST(LocalStoreSliceTest, ReadPiecesKeepTheirBytesWhateverHappensNext) {
  // Corruption and removal of pages a read has handed out, a whole-page
  // slice and a copied partial page: each must leave the read's pieces as
  // they were.
  using Mutation = std::function<void(LocalStore&)>;
  const std::vector<std::pair<std::string, Mutation>> mutations = {
      {"corrupt bitflip",
       [](LocalStore& ls) {
         (void)ls.corrupt_one("obj", 3, CorruptKind::kBitFlip);
       }},
      {"corrupt torn",
       [](LocalStore& ls) {
         (void)ls.corrupt_one("obj", 5, CorruptKind::kTornWrite);
       }},
      {"corrupt stale",
       [](LocalStore& ls) {
         (void)ls.corrupt_one("obj", 7, CorruptKind::kStaleRead);
       }},
      {"flip slice page", [](LocalStore& ls) { ls.flip_byte("obj", 17); }},
      {"flip owned page",
       [](LocalStore& ls) {
         ls.flip_byte("obj", LocalStore::kPageSize + 17);
       }},
      {"remove", [](LocalStore& ls) { (void)ls.remove("obj"); }},
  };
  const Bytes original =
      pattern_bytes(21, 0, LocalStore::kPageSize + 1000);
  for (const auto& [what, mutate] : mutations) {
    SCOPED_TRACE(what);
    Simulation sim;
    Device dev(sim, ramdisk_preset(16 * MiB));
    LocalStore store(dev);
    std::vector<ByteSlice> pieces;
    sim.spawn([](LocalStore& ls, const Bytes& bytes,
                 std::vector<ByteSlice>& out) -> Task<void> {
      co_await write_mixed(ls, bytes);
      auto r = co_await ls.read("obj", 0, bytes.size());
      CO_ASSERT_OK(r);
      out = std::move(r).value();
    }(store, original, pieces));
    sim.run();
    ASSERT_EQ(pieces.size(), 2u);
    mutate(store);
    EXPECT_TRUE(pieces_equal(pieces, original));
  }
}

TEST(LocalStoreSliceTest, ReadPiecesKeepTheirBytesAcrossOverwrites) {
  Simulation sim;
  Device dev(sim, ramdisk_preset(16 * MiB));
  LocalStore store(dev);
  const std::uint64_t kPage = LocalStore::kPageSize;
  const Bytes original = pattern_bytes(22, 0, kPage + 1000);
  bool done = false;
  sim.spawn([](LocalStore& ls, const Bytes& bytes, std::uint64_t page,
               bool& finished) -> Task<void> {
    co_await write_mixed(ls, bytes);
    auto before = co_await ls.read("obj", 0, bytes.size());
    CO_ASSERT_OK(before);
    // A partial overwrite of each page, and a whole-page one of the first.
    CO_ASSERT_OK(co_await ls.write_at("obj", 10, sent(Bytes(100, 0xEE))));
    CO_ASSERT_OK(
        co_await ls.write_at("obj", page + 10, sent(Bytes(100, 0xEE))));
    CO_ASSERT(pieces_equal(before.value(), bytes));
    CO_ASSERT_OK(co_await ls.write_at("obj", 0, sent(Bytes(page, 0xDD))));
    CO_ASSERT(pieces_equal(before.value(), bytes));
    auto now = co_await ls.read("obj", 0, bytes.size());
    CO_ASSERT_OK(now);
    Bytes want = bytes;
    std::fill_n(want.begin(), page, 0xDD);
    std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(page) + 10, 100,
                0xEE);
    CO_ASSERT(pieces_equal(now.value(), want));
    finished = true;
  }(store, original, kPage, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(LocalStoreSliceTest, StoresWrittenFromOneSliceCorruptIndependently) {
  // The OST and the RAM-disk replica can hold slices of one buffer: damage
  // to one copy must not reach the other, nor the sender's buffer.
  Simulation sim;
  Device dev_a(sim, ramdisk_preset(16 * MiB));
  Device dev_b(sim, ramdisk_preset(16 * MiB));
  LocalStore a(dev_a);
  LocalStore b(dev_b);
  const Bytes original = pattern_bytes(23, 0, 2 * LocalStore::kPageSize);
  const BytesPtr buffer = make_bytes(original);
  sim.spawn([](LocalStore& x, LocalStore& y, BytesPtr bytes) -> Task<void> {
    CO_ASSERT_OK(co_await x.write_at("obj", 0, whole(bytes)));
    CO_ASSERT_OK(co_await y.write_at("obj", 0, whole(bytes)));
  }(a, b, buffer));
  sim.run();
  a.flip_byte("obj", LocalStore::kPageSize + 5);
  for (const CorruptKind kind : {CorruptKind::kBitFlip,
                                 CorruptKind::kTornWrite,
                                 CorruptKind::kStaleRead}) {
    EXPECT_EQ(a.corrupt_one("obj", 11, kind), "obj");
  }
  Bytes got_a;
  Bytes got_b;
  sim.spawn([](LocalStore& x, LocalStore& y, std::uint64_t n, Bytes& out_x,
               Bytes& out_y) -> Task<void> {
    auto rx = co_await x.read("obj", 0, n);
    auto ry = co_await y.read("obj", 0, n);
    CO_ASSERT_OK(rx);
    CO_ASSERT_OK(ry);
    out_x = gather(rx.value());
    out_y = gather(ry.value());
  }(a, b, original.size(), got_a, got_b));
  sim.run();
  EXPECT_NE(got_a, original);
  EXPECT_EQ(got_b, original);
  EXPECT_EQ(*buffer, original);
}

TEST(LocalStoreSliceTest, OnlyWholePageWritesShareTheSendersBuffer) {
  Simulation sim;
  Device dev(sim, ramdisk_preset(16 * MiB));
  LocalStore store(dev);
  const std::uint64_t kPage = LocalStore::kPageSize;
  // Two whole pages at an aligned offset and a short page that ends the
  // object are kept; an unaligned write and a partial overwrite are copied.
  const BytesPtr pages = make_bytes(pattern_bytes(24, 0, 2 * kPage + 7));
  const BytesPtr tail = make_bytes(pattern_bytes(25, 0, kPage / 2));
  const BytesPtr partial = make_bytes(pattern_bytes(26, 0, 1000));
  sim.spawn([](LocalStore& ls, BytesPtr p, BytesPtr t,
               BytesPtr q) -> Task<void> {
    const std::uint64_t page = LocalStore::kPageSize;
    // Built in its own statement: GCC 12 frees a braced temporary in a
    // co_await argument list twice.
    const ByteSlice two_pages{p, 7, 2 * page};
    CO_ASSERT_OK(co_await ls.write_at("a", 0, two_pages));
    CO_ASSERT_OK(co_await ls.write_at("a", 2 * page, whole(t)));
    CO_ASSERT_OK(co_await ls.write_at("b", 10, whole(q)));
    CO_ASSERT_OK(co_await ls.write_at("a", 0, whole(q)));
  }(store, pages, tail, partial));
  sim.run();
  // The partial overwrite of a's first page copied that page: only the
  // second still holds `pages`.
  EXPECT_EQ(pages.use_count(), 2);
  EXPECT_EQ(tail.use_count(), 2);
  EXPECT_EQ(partial.use_count(), 1);
  EXPECT_TRUE(store.remove("a").is_ok());
  EXPECT_EQ(pages.use_count(), 1);
  EXPECT_EQ(tail.use_count(), 1);
}


TEST(LocalStoreSliceTest, OutOfOrderWholePageWritesOwnNoPage) {
  // Chunk stores finish out of order: page 3 of an object lands first, then
  // pages 1, 0 and 2, then page 5, which leaves page 4 a real gap. A page
  // wholly in a gap is the one shared page of zeros, never a buffer the
  // store fills and owns.
  Simulation sim;
  Device dev(sim, ramdisk_preset(16 * MiB));
  LocalStore store(dev);
  LocalStore other(dev);
  const std::uint64_t kPage = LocalStore::kPageSize;
  const BytesPtr data = make_bytes(pattern_bytes(27, 0, 6 * kPage));
  std::vector<ByteSlice> early;  // pages 0-2 while only page 3 is written
  std::vector<ByteSlice> done;   // pages 0-5 at the end
  std::vector<ByteSlice> gap;    // `other`'s page 0, also in a gap
  sim.spawn([](LocalStore& ls, LocalStore& os, BytesPtr d,
               std::vector<ByteSlice>& e, std::vector<ByteSlice>& f,
               std::vector<ByteSlice>& g) -> Task<void> {
    const std::uint64_t page = LocalStore::kPageSize;
    for (const std::uint64_t p : {3u, 1u, 0u, 2u, 5u}) {
      const ByteSlice one{d, p * page, page};
      CO_ASSERT_OK(co_await ls.write_at("obj", p * page, one));
      if (p == 3) {
        auto r = co_await ls.read("obj", 0, 3 * page);
        CO_ASSERT_OK(r);
        e = std::move(r.value());
      }
    }
    auto r = co_await ls.read("obj", 0, 6 * page);
    CO_ASSERT_OK(r);
    f = std::move(r.value());
    const ByteSlice last{d, 0, 10};
    CO_ASSERT_OK(co_await os.write_at("obj", page, last));
    auto o = co_await os.read("obj", 0, page);
    CO_ASSERT_OK(o);
    g = std::move(o.value());
  }(store, other, data, early, done, gap));
  sim.run();
  ASSERT_EQ(early.size(), 3u);
  ASSERT_EQ(done.size(), 6u);
  ASSERT_EQ(gap.size(), 1u);
  const auto zeros = [](const ByteSlice& slice) {
    return std::all_of(slice.span().begin(), slice.span().end(),
                       [](std::uint8_t b) { return b == 0; });
  };
  // Before their writes, pages 0-2 read as zeros from the one page that
  // `other`'s gap reads too.
  for (const ByteSlice& slice : early) {
    EXPECT_EQ(slice.bytes, gap[0].bytes);
    EXPECT_TRUE(zeros(slice));
  }
  // Every written page is a slice of the sender's buffer.
  for (const std::uint64_t p : {0u, 1u, 2u, 3u, 5u}) {
    EXPECT_EQ(done[p].bytes, data) << "page " << p;
    EXPECT_EQ(done[p].offset, p * kPage) << "page " << p;
  }
  EXPECT_EQ(done[4].bytes, gap[0].bytes);
  EXPECT_TRUE(zeros(done[4]));
  EXPECT_TRUE(pieces_equal({done[5]}, std::span(*data).subspan(5 * kPage)));
  // A write into a gap page copies it first: the shared zeros stay zeros.
  store.flip_byte("obj", 4 * kPage + 17);
  std::vector<ByteSlice> flipped;
  sim.spawn([](LocalStore& ls, std::vector<ByteSlice>& out) -> Task<void> {
    auto r = co_await ls.read("obj", 4 * LocalStore::kPageSize,
                              LocalStore::kPageSize);
    CO_ASSERT_OK(r);
    out = std::move(r.value());
  }(store, flipped));
  sim.run();
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_EQ(flipped[0].span()[17], 0xFF);
  EXPECT_TRUE(zeros(gap[0]));
  EXPECT_TRUE(zeros(done[4]));
}

}  // namespace
}  // namespace hpcbb::storage
