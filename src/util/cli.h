#pragma once

// Minimal command-line / environment flag parsing for fairsched_exp and the
// bench and example binaries.
//
// Flags are written `--name=value` (or `--name value`). For every flag there
// is an environment-variable fallback `FAIRSCHED_<NAME>` (upper-cased, dashes
// turned into underscores) so the whole experiment suite can be scaled up or
// down without editing command lines, e.g.
// `FAIRSCHED_INSTANCES=100 ./fairsched_exp table1`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fairsched {

class Flags {
 public:
  // Parses argv; throws std::invalid_argument on malformed flags.
  Flags(int argc, const char* const* argv);

  // Lookup order: command line, then FAIRSCHED_<NAME> env var, then fallback.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  bool has(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  static std::string env_name(const std::string& flag_name);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// Strips leading/trailing ASCII whitespace (spaces and tabs).
std::string trim_whitespace(const std::string& s);

// Splits `s` on `sep`, trims ASCII whitespace around each token, and drops
// empty tokens. Shared by the policy-list, axis-spec and sweep-config
// parsers.
std::vector<std::string> split_and_trim(const std::string& s, char sep);

}  // namespace fairsched
