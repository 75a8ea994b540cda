// What the master and every burst-buffer client must agree on. Both take
// the same instance, so they cannot disagree.
#pragma once

#include <cstdint>
#include <string>

#include "burstbuffer/scheme.h"
#include "common/units.h"
#include "kvstore/client.h"

namespace hpcbb::bb {

struct CommonParams {
  Scheme scheme = Scheme::kAsync;
  std::uint64_t block_size = 128 * MiB;
  std::uint64_t chunk_size = 1 * MiB;
  std::string lustre_prefix = "/bb";  // of each file's Lustre backing file
  // Flushers find failover and replica chunks where writers put them only
  // with the same client config. replication_factor > 1 also arms the
  // master's replication recovery.
  kv::ClientParams kv_client;
};

}  // namespace hpcbb::bb
