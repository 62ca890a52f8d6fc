#pragma once

// Comma-separated key=value lists: the format of the HS_CONFIG,
// HS_BENCH_FAULTS and HS_BENCH_RETRY environment variables. Parsing is
// strict, because a typo that silently fell back to a default would
// fake a run's settings.

#include <charconv>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace hs {

/// Calls `apply(key, value)` (both std::string) for each non-empty
/// comma-separated item of `text`. Throws Errc::invalid_argument, naming
/// `what` and the item, for an item with no '=' or an empty key.
template <typename Fn>
void parse_kv_list(std::string_view text, std::string_view what, Fn apply) {
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (item.empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    require(eq != std::string_view::npos && eq > 0,
            std::string(what) + ": expected key=value, got '" +
                std::string(item) + "'");
    apply(std::string(item.substr(0, eq)), std::string(item.substr(eq + 1)));
  }
}

/// `value` of `key` as a number. Throws Errc::invalid_argument, naming
/// `what` and `key`, unless the whole of `value` parses.
inline double kv_number(std::string_view what, const std::string& key,
                        const std::string& value) {
  double out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  require(!value.empty() && ec == std::errc{} && ptr == end,
          std::string(what) + ": '" + key + "' needs a number, got '" +
              value + "'");
  return out;
}

}  // namespace hs
