/** @file Unit tests for the assembled SMT system and its run loop. */

#include <gtest/gtest.h>

#include "sim/smt_system.hh"

namespace smtdram
{
namespace
{

std::vector<AppProfile>
mixProfiles(const char *name)
{
    std::vector<AppProfile> apps;
    for (const std::string &app : mixByName(name).apps)
        apps.push_back(specProfile(app));
    return apps;
}

TEST(SmtSystem, RunsSingleThread)
{
    SystemConfig config = SystemConfig::paperDefault(1);
    SmtSystem system(config, {specProfile("gzip")}, 42);
    const RunResult r = system.run(10000, 5000);
    ASSERT_EQ(r.ipc.size(), 1u);
    EXPECT_GT(r.ipc[0], 0.5);
    EXPECT_GE(r.committed[0], 10000u);
    EXPECT_GT(r.measuredCycles, 0u);
}

TEST(SmtSystem, DeterministicAcrossRuns)
{
    auto once = [] {
        SystemConfig config = SystemConfig::paperDefault(2);
        SmtSystem system(config, mixProfiles("2-MEM"), 42);
        return system.run(5000, 2000);
    };
    const RunResult a = once();
    const RunResult b = once();
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_DOUBLE_EQ(a.rowMissRate, b.rowMissRate);
}

TEST(SmtSystem, SeedChangesTheRun)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem a(config, mixProfiles("2-MEM"), 42);
    SmtSystem b(config, mixProfiles("2-MEM"), 43);
    const RunResult ra = a.run(5000, 2000);
    const RunResult rb = b.run(5000, 2000);
    EXPECT_NE(ra.measuredCycles, rb.measuredCycles);
}

TEST(SmtSystemDeathTest, ProfileCountMustMatchThreads)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    EXPECT_EXIT(SmtSystem(config, {specProfile("gzip")}, 42),
                testing::ExitedWithCode(1), "profiles");
}

TEST(SmtSystemDeathTest, ZeroBudgetIsFatal)
{
    SmtSystem system(SystemConfig::paperDefault(1), {specProfile("gzip")},
                     42);
    EXPECT_EXIT(system.run(0, 100), testing::ExitedWithCode(1),
                "fatal: a run needs a measurement budget");
}

TEST(SmtSystem, MemMixKeepsDramBusy)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(8000, 4000);
    EXPECT_GT(r.dram.reads, 100u);
    EXPECT_GT(r.memAccessPer100, 1.0);
    EXPECT_GT(r.outstandingHist.total(), 0u);
    EXPECT_GT(r.threadsHist.total(), 0u);
}

TEST(SmtSystem, IlpMixBarelyTouchesDram)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem system(config, mixProfiles("2-ILP"), 42);
    const RunResult r = system.run(20000, 20000);
    EXPECT_LT(r.memAccessPer100, 0.5);
}

TEST(SmtSystem, InfiniteL3BeatsRealMemoryOnMemMix)
{
    SystemConfig real_cfg = SystemConfig::paperDefault(2);
    SmtSystem real_sys(real_cfg, mixProfiles("2-MEM"), 42);
    const RunResult real = real_sys.run(5000, 2000);

    SmtSystem inf_sys(real_cfg.withInfiniteL3(), mixProfiles("2-MEM"),
                      42);
    const RunResult inf = inf_sys.run(5000, 2000);

    EXPECT_GT(inf.ipc[0] + inf.ipc[1],
              1.5 * (real.ipc[0] + real.ipc[1]));
    EXPECT_EQ(inf.dram.reads, 0u);
}

TEST(SmtSystem, PerThreadIpcUsesOwnFinishCycle)
{
    // gzip finishes its budget long before mcf; its IPC must be
    // computed at its own finish point, not the end of the run.
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem system(config, mixProfiles("2-MIX"), 42);
    const RunResult r = system.run(20000, 10000);
    EXPECT_GT(r.ipc[0], 1.2 * r.ipc[1]);  // gzip vs mcf
    EXPECT_GT(r.committed[0], r.committed[1]);
}

TEST(SmtSystem, IntIssueFractionIsAFraction)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem system(config, mixProfiles("2-MIX"), 42);
    const RunResult r = system.run(5000, 2000);
    EXPECT_GT(r.intIssueActiveFrac, 0.0);
    EXPECT_LE(r.intIssueActiveFrac, 1.0);
}

TEST(SmtSystem, EightThreadMixRuns)
{
    SystemConfig config = SystemConfig::paperDefault(8);
    SmtSystem system(config, mixProfiles("8-MIX"), 42);
    const RunResult r = system.run(2000, 1000);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
}

TEST(SmtSystem, RowMissRateIsAFraction)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(5000, 2000);
    EXPECT_GE(r.rowMissRate, 0.0);
    EXPECT_LE(r.rowMissRate, 1.0);
}

} // namespace
} // namespace smtdram
