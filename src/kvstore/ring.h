// Ketama-style consistent-hash ring for client-side sharding across KV
// servers (how memcached clients distribute keys). Virtual nodes smooth the
// load; removing a server only remaps its own arc.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"

namespace hpcbb::kv {

// FNV-1a has weak avalanche on short, similar strings ("server-0#1" vs
// "server-0#2" differ only in a few bits), which clusters ring points by
// server and defeats load spreading. A SplitMix64 finalizer fixes that.
inline std::uint64_t ring_hash(std::string_view s) noexcept {
  return SplitMix64(fnv1a(s)).next();
}

class HashRing {
 public:
  static constexpr std::uint32_t kDefaultVnodes = 100;

  explicit HashRing(std::uint32_t server_count,
                    std::uint32_t vnodes_per_server = kDefaultVnodes) {
    assert(server_count > 0);
    points_.reserve(static_cast<std::size_t>(server_count) * vnodes_per_server);
    for (std::uint32_t s = 0; s < server_count; ++s) {
      for (std::uint32_t v = 0; v < vnodes_per_server; ++v) {
        const std::string label =
            "server-" + std::to_string(s) + "#" + std::to_string(v);
        points_.push_back({ring_hash(label), s});
      }
    }
    std::sort(points_.begin(), points_.end());
    server_count_ = server_count;
  }

  // Server index owning `key`.
  [[nodiscard]] std::uint32_t server_for(std::string_view key) const {
    return server_for_hash(ring_hash(key));
  }

  [[nodiscard]] std::uint32_t server_for_hash(std::uint64_t hash) const {
    const auto it = std::upper_bound(points_.begin(), points_.end(),
                                     Point{hash, ~0u});
    return (it == points_.end() ? points_.front() : *it).server;
  }

  // The first `count` distinct servers clockwise from the key's hash: the
  // owner first, then the replica chain in failover order. Capped at the
  // server count; a full-count request enumerates every server, giving the
  // ring-exhausting failover walk. Purely a function of (ring, key), so
  // every client and the recovery manager agree on replica sets without
  // coordination.
  [[nodiscard]] std::vector<std::uint32_t> successors(
      std::string_view key, std::uint32_t count) const {
    std::vector<std::uint32_t> out;
    const std::uint32_t want =
        std::min(std::max(count, 1u), server_count_);
    out.reserve(want);
    const std::uint64_t hash = ring_hash(key);
    auto it = std::upper_bound(points_.begin(), points_.end(),
                               Point{hash, ~0u});
    for (std::size_t step = 0; step < points_.size() && out.size() < want;
         ++step, ++it) {
      if (it == points_.end()) it = points_.begin();
      if (std::find(out.begin(), out.end(), it->server) == out.end()) {
        out.push_back(it->server);
      }
    }
    return out;
  }

  [[nodiscard]] std::uint32_t server_count() const noexcept {
    return server_count_;
  }

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t server;
    bool operator<(const Point& o) const noexcept {
      return hash != o.hash ? hash < o.hash : server < o.server;
    }
  };

  std::vector<Point> points_;
  std::uint32_t server_count_ = 0;
};

}  // namespace hpcbb::kv
