// Scratch-file paths for tests that write to disk.
//
// gtest_discover_tests runs every test as its own process, and parallel
// ctest runs those processes concurrently, so a fixed file name shared by
// two tests races (one test's rename or remove pulls the file from under
// the other). Every path is therefore unique to the running test and the
// process: <temp dir>/<suite>.<test>.<pid>.<name>.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace mlbm {

inline std::string tmp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info != nullptr ? std::string(info->test_suite_name()) +
                                          "." + info->name()
                                    : std::string("mlbm_tests");
  for (char& c : tag) {
    if (c == '/') c = '_';  // parameterized suite and test names
  }
  tag += "." + std::to_string(::getpid()) + "." + name;
  return (std::filesystem::temp_directory_path() / tag).string();
}

}  // namespace mlbm
