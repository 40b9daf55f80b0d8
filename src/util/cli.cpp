#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace spnl {

namespace {

// std::from_chars with a whole-string match: "4x", "abc", "" and overflow all
// fail instead of yielding a silent prefix parse the way strtoll/strtod with
// a null endptr did.
template <typename T>
T parse_full(const std::string& key, const std::string& value) {
  T parsed{};
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [next, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || next != end || value.empty()) {
    throw CliError("--" + key + ": invalid numeric value '" + value + "'");
  }
  return parsed;
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_full<std::int64_t>(key, it->second);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return parse_full<double>(key, it->second);
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool CliArgs::known_flags_only(std::initializer_list<std::string_view> known) const {
  for (const auto& [key, _] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace spnl
