// HS_CONFIG: the one environment variable that overrides RuntimeConfig's
// debug and fallback switches, parsed strictly (common/kv_list.hpp).

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string_view>

#include "common/kv_list.hpp"
#include "core/runtime.hpp"

namespace hs {

namespace {

constexpr std::array<std::string_view, 6> kConfigKeys = {
    "dep_legacy_scan",  "dep_oracle",       "coherence.track",
    "coherence.elide",  "coherence.oracle", "eviction"};

/// Pointers to the switches of `config` in kConfigKeys order (pointers to
/// const for a const `config`).
template <typename Config>
auto config_fields(Config& config) {
  return std::array{&config.dep_legacy_scan,  &config.dep_oracle,
                    &config.coherence.track,  &config.coherence.elide,
                    &config.coherence.oracle, &config.eviction};
}

}  // namespace

RuntimeConfig Runtime::with_hs_config(RuntimeConfig config) {
  const char* env = std::getenv("HS_CONFIG");
  parse_kv_list(env != nullptr ? env : "", "HS_CONFIG",
                [&config](const std::string& key, const std::string& value) {
    const auto* it = std::find(kConfigKeys.begin(), kConfigKeys.end(), key);
    require(it != kConfigKeys.end(), "HS_CONFIG: unknown key '" + key + "'");
    require(value == "0" || value == "1",
            "HS_CONFIG: '" + key + "' takes 0 or 1, got '" + value + "'");
    *config_fields(config)[static_cast<std::size_t>(
        it - kConfigKeys.begin())] = value == "1";
  });
  config.coherence.elide = config.coherence.elide && config.coherence.track;
  return config;
}

std::string hs_config_string(const RuntimeConfig& config) {
  const auto fields = config_fields(config);
  std::string out;
  for (std::size_t i = 0; i < kConfigKeys.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += kConfigKeys[i];
    out += *fields[i] ? "=1" : "=0";
  }
  return out;
}

}  // namespace hs
