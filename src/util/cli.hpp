// Tiny command-line flag parser shared by benches and examples.
//
// Syntax: --key=value or --key value or bare --flag (boolean true).
// Front-ends reject any flag they do not read (known_flags_only).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spnl {

/// Typed error for malformed flag values (--threads=abc, --k=4x). The
/// numeric getters throw it instead of silently parsing a prefix (or 0);
/// front-ends catch it and exit with usage status.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Throws CliError when the flag is present but not a full valid integer
  /// (empty value, trailing garbage, overflow). Absent flag -> fallback.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Throws CliError when the flag is present but not a full valid number.
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// `known` lists every flag the tool reads. On the first flag outside it,
  /// prints "error: unknown flag --X" to stderr and returns false; the tool
  /// then exits 2, so a mistyped or retired flag never runs with a default.
  bool known_flags_only(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace spnl
