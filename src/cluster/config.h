// ClusterConfig's configuration key table (DESIGN.md §5, "One config
// schema"; the row type is common/config_key.h). A key in no table is
// kInvalidArgument naming the key; obs::HealthParams::from_properties owns
// the slo.* / flightrec.* keys.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "cluster/cluster.h"
#include "common/config_key.h"
#include "common/properties.h"
#include "common/status.h"

namespace hpcbb::cluster {

// Every ClusterConfig key.
std::span<const ConfigKey<ClusterConfig>> cluster_keys();

// Overlays the ClusterConfig keys that `props` holds onto `config`.
Status apply_properties(const Properties& props, ClusterConfig& config);

// A program's whole command line: rejects a key that is in neither table
// nor the slo.* / flightrec.* namespace, then overlays ClusterConfig's keys
// onto `config` and the program's own keys onto `own`.
template <class T>
Status apply_properties(
    const Properties& props, ClusterConfig& config,
    std::span<const ConfigKey<std::type_identity_t<T>>> own_keys, T& own) {
  const auto named = [](std::string_view name) {
    return [name](const auto& key) { return key.name == name; };
  };
  for (const auto& entry : props.entries()) {
    const std::string& name = entry.first;
    if (!name.starts_with("slo.") && !name.starts_with("flightrec.") &&
        std::ranges::none_of(cluster_keys(), named(name)) &&
        std::ranges::none_of(own_keys, named(name))) {
      return error(StatusCode::kInvalidArgument, "unknown key " + name);
    }
  }
  const Status status = apply_properties(props, config);
  return status.is_ok() ? apply_keys(props, own_keys, own) : status;
}

}  // namespace hpcbb::cluster
