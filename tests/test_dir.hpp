// Per-test scratch directories for tests that write files.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cctype>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace spnl {

/// Creates a fresh, empty directory private to the running test (mkdtemp
/// under the system temp directory, named after the test so leftovers are
/// traceable). gtest_discover_tests runs every TEST as its own process and
/// ctest -j runs those in parallel, so a fixed path would let one test's
/// cleanup delete another test's files mid-write. The caller removes it.
inline std::filesystem::path unique_test_dir() {
  std::string name = "spnl_";
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string(info->test_suite_name()) + "." + info->name();
  }
  // Keep the path short enough for a unix socket inside it (108 bytes) and
  // free of the '/' parameterized test names carry.
  name.resize(std::min<std::size_t>(name.size(), 48));
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.') c = '_';
  }
  std::string path =
      (std::filesystem::temp_directory_path() / (name + ".XXXXXX")).string();
  if (::mkdtemp(path.data()) == nullptr) {
    throw std::runtime_error("unique_test_dir: mkdtemp failed for " + path);
  }
  return path;
}

}  // namespace spnl
