#ifndef QASCA_TESTS_SCOPED_TEST_DIR_H_
#define QASCA_TESTS_SCOPED_TEST_DIR_H_

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace qasca {

/// A directory private to the running test, named by the test and the pid:
/// <TempDir>/qasca.<Suite>.<Test>.<pid>. ctest runs every discovered test as
/// its own process, several at once under -j, so tests that write fixed
/// file names (an AppManager journals app N to "<dir>/journal.appN.*") each
/// need their own directory. Created empty; removed with its contents when
/// the test ends.
class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "." + info->name();
    // Parameterised tests are named "Prefix/Suite.Test/param".
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "/qasca." + name + "." +
            std::to_string(::getpid());
    Reset();
  }
  ~ScopedTestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  /// Empties the directory, so the next AppManager built on it starts
  /// without the previous one's journals.
  void Reset() {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace qasca

#endif  // QASCA_TESTS_SCOPED_TEST_DIR_H_
