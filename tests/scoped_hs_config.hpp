// Sets HS_CONFIG to the inherited value plus `items` for one scope (later
// keys win, so a suite-wide setting such as the oracle run's stays in
// force for every other key), then restores the inherited value.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace hs::test {

class ScopedHsConfig {
 public:
  explicit ScopedHsConfig(const std::string& items) {
    if (const char* inherited = std::getenv("HS_CONFIG")) {
      inherited_ = inherited;
    }
    const std::string value = inherited_ ? *inherited_ + "," + items : items;
    setenv("HS_CONFIG", value.c_str(), 1);
  }
  ~ScopedHsConfig() {
    if (inherited_) {
      setenv("HS_CONFIG", inherited_->c_str(), 1);
    } else {
      unsetenv("HS_CONFIG");
    }
  }
  ScopedHsConfig(const ScopedHsConfig&) = delete;
  ScopedHsConfig& operator=(const ScopedHsConfig&) = delete;

 private:
  std::optional<std::string> inherited_;
};

}  // namespace hs::test
