// Key=value properties (Hadoop-configuration style) with strict typed
// getters. Examples and benches accept overrides like "bb.scheme=local" on
// the command line; this is the shared parser. Which keys exist and what
// they set is declared once, in key tables (common/config_key.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hpcbb {

// How a configuration value is spelled and stored (Properties::get_value).
enum class ValueType {
  kSize,      // unsigned integer, optional k/m/g/t suffix (binary)
  kMicros,    // unsigned integer of microseconds, stored as nanoseconds
  kDuration,  // number with an ns/us/ms/s suffix, stored as nanoseconds
  kFraction,  // real number in [0, 1]
  kReal,      // finite real number
  kBool,      // 1/0, true/false, yes/no
  kChoice,    // one of a list of names, stored as its index
  kText,      // non-empty string
};

// A parsed value: kFraction/kReal set `real`, kText sets `text` (a view of
// the Properties' own string), every other type sets `number`.
struct TypedValue {
  std::uint64_t number = 0;
  double real = 0.0;
  std::string_view text;
};

class Properties {
 public:
  Properties() = default;

  // Parses "a.b=1\nc=hello" text; '#' starts a comment. Later keys win.
  static Result<Properties> parse(std::string_view text);
  // Merges command-line arguments, each a key=value pair or the path of a
  // properties file; later keys win. Arguments listed in `flags` are the
  // caller's and are skipped. Anything that does not parse is an error:
  // running the defaults after a typo would report an experiment nobody
  // asked for.
  static Result<Properties> from_args(
      int argc, const char* const* argv,
      std::span<const std::string_view> flags = {});

  void set(std::string key, std::string value);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  // Parses the value of `key` as `type`; kChoice accepts the names in
  // `choices` and stores the index. A missing key is kNotFound and a value
  // that does not parse (including one past 2^64 after its suffix) is
  // kInvalidArgument, so callers reject malformed configuration instead of
  // silently using a default.
  [[nodiscard]] Result<TypedValue> get_value(
      const std::string& key, ValueType type,
      std::span<const std::string_view> choices = {}) const;
  // get_value's number for kSize ("128m" -> 128 MiB).
  [[nodiscard]] Result<std::uint64_t> get_u64(const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace hpcbb
