// Minimal command-line flag parsing for the tools and examples.
//
// Accepts --key=value and --key value forms plus bare --switches
// (booleans).  The space form consumes the next token when it does not
// start with "--", so a boolean switch followed by a positional must
// use --switch=true.  Unknown keys are enumerable so tools can reject
// typos.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace quartz {

class Flags {
 public:
  /// Parse argv; positional (non --) arguments are kept in order.
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& key) const { return values_.contains(key); }

  /// String value or fallback.
  std::string get(const std::string& key, const std::string& fallback = "") const;
  /// Integer value or fallback; throws std::invalid_argument on junk.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Double value or fallback; throws std::invalid_argument on junk.
  double get_double(const std::string& key, double fallback) const;
  /// Presence-style boolean (--flag or --flag=true/false).
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Parsed keys not in `known` — non-empty means the user made a typo.
  std::vector<std::string> unknown_keys(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace quartz
