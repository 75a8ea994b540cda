// Lustre metadata server: namespace, file layouts (stripe target lists),
// and round-robin OST allocation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lustre/protocol.h"
#include "net/rpc.h"
#include "sim/simulation.h"

namespace hpcbb::lustre {

struct MdsParams {
  std::uint64_t stripe_size = 1 * MiB;
  std::uint32_t default_stripe_count = 4;
  sim::SimTime md_op_ns = 30 * duration::us;  // metadata service time
};

class Mds {
 public:
  Mds(net::RpcHub& hub, net::NodeId node, std::vector<OstTarget> osts,
      const MdsParams& params);
  ~Mds();

  Mds(const Mds&) = delete;
  Mds& operator=(const Mds&) = delete;


 private:
  sim::Task<net::RpcResponse> handle_create(
      std::shared_ptr<const CreateRequest>);
  sim::Task<net::RpcResponse> handle_lookup(
      std::shared_ptr<const LookupRequest>);
  sim::Task<net::RpcResponse> handle_set_size(
      std::shared_ptr<const SetSizeRequest>);
  sim::Task<net::RpcResponse> handle_unlink(
      std::shared_ptr<const UnlinkRequest>);
  sim::Task<net::RpcResponse> handle_list(std::shared_ptr<const ListRequest>);

  sim::Task<void> charge_md_op();

  net::RpcHub* hub_;
  net::NodeId node_;
  MdsParams params_;
  std::vector<OstTarget> osts_;
  std::uint32_t next_ost_ = 0;  // round-robin allocation cursor
  std::map<std::string, FileLayout> files_;
};

}  // namespace hpcbb::lustre
