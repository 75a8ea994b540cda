// The configuration key table (DESIGN.md §5, "One config schema"): every
// key=value setting is one row naming the key, its ValueType and the field
// it sets. Applying a table overlays the keys that are present onto the
// current values, so defaults stay in the member initializers. A malformed
// value, a value too big for its field, or a key in no table is
// kInvalidArgument naming the key; obs::HealthParams::from_properties owns
// the slo.* / flightrec.* keys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "cluster/cluster.h"
#include "common/properties.h"
#include "common/status.h"

namespace hpcbb::cluster {

template <class T>
struct ConfigKey {
  std::string_view name;
  ValueType type;
  // Stores a value into the row's field; false if it does not fit there.
  bool (*set)(T& target, const TypedValue& value);
  // kChoice: the accepted names, in the order of the enum's enumerators.
  std::span<const std::string_view> choices = {};
  std::uint64_t at_least = 0;  // smaller values are raised to this
};

// The setter of the field target.*m1.*m2...: for example
// field<&ClusterConfig::retry, &net::RetryPolicy::max_attempts>.
template <auto... Members>
constexpr auto field = [](auto& target, const TypedValue& value) {
  auto& out = (target .* ... .* Members);
  using F = std::remove_cvref_t<decltype(out)>;
  if constexpr (std::is_same_v<F, double>) {
    out = value.real;
  } else if constexpr (std::is_same_v<F, std::string>) {
    out = value.text;
  } else {  // an unsigned integer, a bool, or an enum
    if constexpr (std::is_integral_v<F>) {
      if (value.number > std::numeric_limits<F>::max()) return false;
    }
    out = static_cast<F>(value.number);
  }
  return true;
};

// Overlays the keys of `table` that `props` holds onto `target`.
template <class T>
Status apply_keys(const Properties& props,
                  std::span<const ConfigKey<std::type_identity_t<T>>> table,
                  T& target) {
  for (const auto& key : table) {
    const std::string name(key.name);
    if (!props.contains(name)) continue;
    auto value = props.get_value(name, key.type, key.choices);
    if (!value.is_ok()) return value.status();
    value.value().number = std::max(value.value().number, key.at_least);
    if (!key.set(target, value.value())) {
      return error(StatusCode::kInvalidArgument,
                   "key " + name + ": out of range: " + *props.get(name));
    }
  }
  return Status::ok();
}

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
