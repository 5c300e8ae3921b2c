// A private working directory per test, removed afterwards, so tests that
// write fixed file names cannot collide under `ctest -j` (every discovered
// gtest case runs as its own process, all sharing ::testing::TempDir()).
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

class ScratchDir {
 public:
  ScratchDir() {
    std::string templ = ::testing::TempDir() + "tme_test_XXXXXX";
    if (mkdtemp(templ.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << templ;
    }
    path_ = templ;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};
