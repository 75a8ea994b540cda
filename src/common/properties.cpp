#include "common/properties.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "common/units.h"

namespace hpcbb {

Result<Properties> Properties::parse(std::string_view text) {
  Properties props;
  std::size_t line_no = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return error(StatusCode::kInvalidArgument,
                   "line " + std::to_string(line_no) + ": expected key=value");
    }
    const std::string_view key = trim(line.substr(0, eq));
    if (key.empty()) {
      return error(StatusCode::kInvalidArgument,
                   "line " + std::to_string(line_no) + ": empty key");
    }
    props.set(std::string(key), std::string(trim(line.substr(eq + 1))));
  }
  return props;
}

Result<Properties> Properties::from_args(
    int argc, const char* const* argv,
    std::span<const std::string_view> flags) {
  Properties props;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (std::find(flags.begin(), flags.end(), arg) != flags.end()) continue;
    std::string text = arg;
    if (arg.find('=') == std::string::npos) {  // a properties file
      std::ifstream in(arg);
      if (!in) {
        return error(StatusCode::kNotFound, "cannot open config file " + arg);
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
    auto parsed = parse(text);
    if (!parsed.is_ok()) {
      return error(StatusCode::kInvalidArgument,
                   arg + ": " + parsed.status().message());
    }
    for (const auto& [k, v] : parsed.value().entries()) props.set(k, v);
  }
  return props;
}

void Properties::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

std::optional<std::string> Properties::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

Result<std::uint64_t> Properties::get_u64(const std::string& key) const {
  auto value = get_value(key, ValueType::kSize);
  if (!value.is_ok()) return value.status();
  return value.value().number;
}

Result<TypedValue> Properties::get_value(
    const std::string& key, ValueType type,
    std::span<const std::string_view> choices) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return error(StatusCode::kNotFound, "missing key: " + key);
  }
  const std::string& raw = it->second;
  const std::string_view s = trim(raw);
  const auto malformed = [&](const std::string& want) {
    return error(StatusCode::kInvalidArgument,
                 "key " + key + ": " + want + ": " + raw);
  };
  TypedValue value;
  switch (type) {
    case ValueType::kSize:
    case ValueType::kMicros: {
      std::string_view digits = s;
      std::uint64_t scale = type == ValueType::kMicros ? duration::us : 1;
      if (!digits.empty()) {
        switch (std::tolower(static_cast<unsigned char>(digits.back()))) {
          case 'k': scale *= KiB; digits.remove_suffix(1); break;
          case 'm': scale *= MiB; digits.remove_suffix(1); break;
          case 'g': scale *= GiB; digits.remove_suffix(1); break;
          case 't': scale *= TiB; digits.remove_suffix(1); break;
          default: break;
        }
      }
      const auto [end, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), value.number);
      if (ec != std::errc() || end != digits.data() + digits.size() ||
          value.number > UINT64_MAX / scale) {
        return malformed("not a size that fits in 64 bits");
      }
      value.number *= scale;
      return value;
    }
    case ValueType::kDuration: {
      const auto ns = parse_duration_ns(s);
      if (!ns) return malformed("not a duration (want e.g. 100ms)");
      value.number = *ns;
      return value;
    }
    case ValueType::kFraction:
    case ValueType::kReal: {
      // The whole value as a finite number: "0.5x", "nan" and "inf" fail.
      const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                             value.real);
      if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
          !std::isfinite(value.real)) {
        return malformed("not a finite number");
      }
      if (type == ValueType::kFraction &&
          !(value.real >= 0.0 && value.real <= 1.0)) {
        return malformed("not a fraction in [0,1]");
      }
      return value;
    }
    case ValueType::kBool:
      value.number = s == "true" || s == "1" || s == "yes";
      if (!value.number && s != "false" && s != "0" && s != "no") {
        return malformed("not a boolean (want 0/1)");
      }
      return value;
    case ValueType::kChoice: {
      const auto pos = std::find(choices.begin(), choices.end(), s);
      if (pos == choices.end()) {
        std::string names;
        for (const std::string_view name : choices) {
          names.append(names.empty() ? "" : "|").append(name);
        }
        return malformed("not one of " + names);
      }
      value.number = static_cast<std::uint64_t>(pos - choices.begin());
      return value;
    }
    case ValueType::kText:
      if (s.empty()) return malformed("empty value");
      value.text = s;
      return value;
  }
  return error(StatusCode::kInternal, "unreachable");
}

bool Properties::contains(const std::string& key) const {
  return entries_.contains(key);
}

}  // namespace hpcbb
