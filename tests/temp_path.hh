/**
 * @file
 * Artifact paths for tests that write files.
 *
 * gtest_discover_tests runs every TEST as its own process, and ctest
 * -j runs those processes side by side, so a fixed or cwd-relative
 * file name lets one test delete or overwrite another's artifact.
 * Each path here lives under testing::TempDir() and carries the
 * running test's full name and the process id.
 */

#ifndef SMTDRAM_TESTS_TEMP_PATH_HH
#define SMTDRAM_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace smtdram
{

/** "<TempDir>/<Suite>.<Test>.<pid>.<suffix>", unique per test process. */
inline std::string
testArtifactPath(const std::string &suffix)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "global";
    // Parameterized suites and tests carry '/' in their names.
    std::replace(name.begin(), name.end(), '/', '_');
    std::string dir = testing::TempDir();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + name + "." + std::to_string(::getpid()) + "." + suffix;
}

} // namespace smtdram

#endif // SMTDRAM_TESTS_TEMP_PATH_HH
