/**
 * @file
 * Tests for the pluggable warn()/inform() sink and the verbosity
 * gate.  Asserting on a capturing sink replaces fragile
 * stderr-scraping in tests that expect a warning.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace smtdram
{
namespace
{

class CaptureSink : public LogSink
{
  public:
    void
    warnMessage(const std::string &msg) override
    {
        warnings.push_back(msg);
    }

    void
    informMessage(const std::string &msg) override
    {
        informs.push_back(msg);
    }

    std::vector<std::string> warnings;
    std::vector<std::string> informs;
};

/** Installs a capture sink for the test and restores state after. */
class LoggingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prevSink_ = setLogSink(&sink_);
        prevVerbosity_ = setLogVerbosity(LogVerbosity::Normal);
    }

    void
    TearDown() override
    {
        setLogSink(prevSink_);
        setLogVerbosity(prevVerbosity_);
    }

    CaptureSink sink_;
    LogSink *prevSink_ = nullptr;
    LogVerbosity prevVerbosity_ = LogVerbosity::Normal;
};

TEST_F(LoggingTest, SinkReceivesFormattedMessages)
{
    warn("queue %d over %s", 7, "capacity");
    inform("run started");
    ASSERT_EQ(sink_.warnings.size(), 1u);
    EXPECT_EQ(sink_.warnings[0], "queue 7 over capacity");
    ASSERT_EQ(sink_.informs.size(), 1u);
    EXPECT_EQ(sink_.informs[0], "run started");
}

TEST_F(LoggingTest, QuietDropsEverything)
{
    setLogVerbosity(LogVerbosity::Quiet);
    warn("dropped");
    inform("dropped");
    EXPECT_TRUE(sink_.warnings.empty());
    EXPECT_TRUE(sink_.informs.empty());
}

TEST_F(LoggingTest, WarnOnlyDropsInformButKeepsWarn)
{
    setLogVerbosity(LogVerbosity::WarnOnly);
    warn("kept");
    inform("dropped");
    EXPECT_EQ(sink_.warnings.size(), 1u);
    EXPECT_TRUE(sink_.informs.empty());
}

TEST_F(LoggingTest, SetLogSinkReturnsPrevious)
{
    CaptureSink other;
    LogSink *prev = setLogSink(&other);
    EXPECT_EQ(prev, &sink_);
    warn("to other");
    EXPECT_TRUE(sink_.warnings.empty());
    ASSERT_EQ(other.warnings.size(), 1u);
    setLogSink(&sink_);
}

TEST_F(LoggingTest, WarnOnceFiresOncePerCallSite)
{
    for (int i = 0; i < 3; ++i)
        warn_once("repeated condition %d", i);
    ASSERT_EQ(sink_.warnings.size(), 1u);
    EXPECT_NE(sink_.warnings[0].find("repeated condition 0"),
              std::string::npos);
    EXPECT_NE(sink_.warnings[0].find("suppressed"),
              std::string::npos);
}

TEST(LoggingDeath, PanicStillPrintsToStderrWithSinkInstalled)
{
    // panic()/fatal() bypass the sink: operators and death tests must
    // see them regardless of sink or verbosity games.
    CaptureSink sink;
    setLogSink(&sink);
    setLogVerbosity(LogVerbosity::Quiet);
    EXPECT_DEATH(panic("invariant %d broke", 3), "invariant 3 broke");
    setLogSink(nullptr);
    setLogVerbosity(LogVerbosity::Normal);
}

TEST(LoggingDeath, PanicHookRunsBeforeAbort)
{
    setPanicHook([] { std::fputs("hook-ran-postmortem\n", stderr); });
    EXPECT_DEATH(panic("with hook"), "hook-ran-postmortem");
    setPanicHook({});
}

TEST(LoggingDeath, FatalSkipsStaticDestructors)
{
    // A fatal on one sweep worker must not tear down statics its
    // sibling workers still use: fatal() runs no static destructors.
    // Were it to, this one would turn exit status 1 into an abort.
    struct AbortsOnDestruction {
        ~AbortsOnDestruction() { std::abort(); }
    };
    EXPECT_EXIT(
        {
            static AbortsOnDestruction guard;
            (void)guard;
            fatal("bad value %d", 7);
        },
        testing::ExitedWithCode(1), "fatal: bad value 7");
}

} // namespace
} // namespace smtdram
