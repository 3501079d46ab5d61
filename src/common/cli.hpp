// Minimal command-line flag parsing for bench harnesses and examples.
// Supports --key=value, --key value, and boolean --flag forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rh::common {

/// Parsed command line. Unknown flags are kept and can be rejected by the
/// caller via unknown_flags(); positional arguments are preserved in order.
/// All parse/validation failures throw CliError (a ConfigError), naming the
/// offending flag and value.
class CliArgs {
public:
  /// Parses argv[1..). Throws CliError on malformed input (e.g. "--=3").
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `def` if absent.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;

  /// Integer value of --name, or `def` if absent. Throws CliError if the
  /// value is present but not an integer.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;

  /// Double value of --name, or `def` if absent. Throws CliError if the
  /// value is present but not a number.
  [[nodiscard]] double get_double(const std::string& name, double def) const;

  // Validated getters for knobs where out-of-domain values would otherwise
  // fail far from the command line (a --jobs=0 campaign hangs planning, a
  // negative fault rate silently never fires, NaN poisons every compare).

  /// Integer that must be >= 1. `def` is returned unchecked when absent.
  [[nodiscard]] std::int64_t get_positive_int(const std::string& name, std::int64_t def) const;

  /// Integer that must be >= 0 (a budget where 0 means "none").
  [[nodiscard]] std::int64_t get_nonnegative_int(const std::string& name, std::int64_t def) const;

  /// Finite double that must be > 0. Rejects NaN and infinities.
  [[nodiscard]] double get_positive_double(const std::string& name, double def) const;

  /// Finite double in [0, 1] (a probability/rate). Rejects NaN, infinities,
  /// negatives, and values above 1.
  [[nodiscard]] double get_fraction(const std::string& name, double def) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen on the command line that the program never queried.
  /// Call at the end of flag handling to catch typos.
  [[nodiscard]] std::vector<std::string> unqueried_flags() const;

private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace rh::common
