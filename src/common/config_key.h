// The configuration key table (DESIGN.md §5, "One config schema"): every
// key=value setting is one row naming the key, its ValueType and the field
// it sets. Applying a table overlays the keys that are present onto the
// current values, so defaults stay in the member initializers. A malformed
// value or a value too big for its field is kInvalidArgument naming the key.
// ClusterConfig's table is cluster/config.h; the health monitor's tunables
// are a table in obs/health.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/properties.h"
#include "common/status.h"

namespace hpcbb {

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

}  // namespace hpcbb
