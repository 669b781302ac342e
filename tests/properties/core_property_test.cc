/**
 * @file
 * Property-based tests of the whole machine: for every fetch policy,
 * scheduler, and page mode, a short mixed run must terminate, commit
 * on every thread, stay deterministic, and keep its counters
 * consistent.
 */

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

// ---------------------------------------------------------------
// Sweep fetch policies.
// ---------------------------------------------------------------

class FetchPolicyProperty
    : public testing::TestWithParam<FetchPolicyKind>
{
};

TEST_P(FetchPolicyProperty, MixedRunProgressesOnAllThreads)
{
    SystemConfig config = SystemConfig::paperDefault(4);
    config.core.fetchPolicy = GetParam();
    SmtSystem system(config, mixProfiles("4-MIX"), 42);
    const RunResult r = system.run(2000, 1000);
    for (size_t t = 0; t < 4; ++t) {
        EXPECT_GE(r.committed[t], 2000u) << "thread " << t;
        EXPECT_GT(r.ipc[t], 0.0) << "thread " << t;
    }
}

TEST_P(FetchPolicyProperty, Deterministic)
{
    auto once = [this] {
        SystemConfig config = SystemConfig::paperDefault(2);
        config.core.fetchPolicy = GetParam();
        SmtSystem system(config, mixProfiles("2-MIX"), 7);
        return system.run(2000, 500).measuredCycles;
    };
    EXPECT_EQ(once(), once());
}

INSTANTIATE_TEST_SUITE_P(
    AllFetchPolicies, FetchPolicyProperty,
    testing::Values(FetchPolicyKind::RoundRobin,
                    FetchPolicyKind::Icount,
                    FetchPolicyKind::FetchStall, FetchPolicyKind::Dg,
                    FetchPolicyKind::DWarn),
    [](const testing::TestParamInfo<FetchPolicyKind> &info) {
        std::string n = fetchPolicyName(info.param);
        std::erase(n, '-');
        return n;
    });

// ---------------------------------------------------------------
// Sweep DRAM schedulers x page modes on the full system.
// ---------------------------------------------------------------

struct SystemCase {
    SchedulerKind scheduler;
    PageMode mode;
};

class SystemProperty : public testing::TestWithParam<SystemCase>
{
};

TEST_P(SystemProperty, MemMixRunsToCompletion)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.scheduler = GetParam().scheduler;
    config.dram.pageMode = GetParam().mode;
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(3000, 1000);
    EXPECT_GT(r.dram.reads, 50u);
    EXPECT_GE(r.dram.rowMissRate(), 0.0);
    EXPECT_LE(r.dram.rowMissRate(), 1.0);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
    if (GetParam().mode == PageMode::Close) {
        // Close page mode never leaves a row open to hit.
        EXPECT_DOUBLE_EQ(r.dram.rowMissRate(), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersByPageMode, SystemProperty,
    testing::Values(
        SystemCase{SchedulerKind::Fcfs, PageMode::Open},
        SystemCase{SchedulerKind::HitFirst, PageMode::Open},
        SystemCase{SchedulerKind::AgeBased, PageMode::Open},
        SystemCase{SchedulerKind::RequestBased, PageMode::Open},
        SystemCase{SchedulerKind::RobBased, PageMode::Open},
        SystemCase{SchedulerKind::IqBased, PageMode::Open},
        SystemCase{SchedulerKind::HitFirst, PageMode::Close},
        SystemCase{SchedulerKind::RequestBased, PageMode::Close}),
    [](const testing::TestParamInfo<SystemCase> &info) {
        std::string n = schedulerName(info.param.scheduler);
        std::erase(n, '-');
        n += info.param.mode == PageMode::Open ? "_open" : "_close";
        return n;
    });

// ---------------------------------------------------------------
// Sweep channel organizations.
// ---------------------------------------------------------------

struct OrgCase {
    std::uint32_t channels;
    std::uint32_t gang;
};

class OrganizationProperty : public testing::TestWithParam<OrgCase>
{
};

TEST_P(OrganizationProperty, MemMixRunsOnEveryOrganization)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram =
        DramConfig::ddrSdram(GetParam().channels, GetParam().gang);
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(2000, 1000);
    EXPECT_GT(r.dram.reads, 20u);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, OrganizationProperty,
    testing::Values(OrgCase{2, 1}, OrgCase{2, 2}, OrgCase{4, 1},
                    OrgCase{4, 2}, OrgCase{8, 1}, OrgCase{8, 2},
                    OrgCase{8, 4}),
    [](const testing::TestParamInfo<OrgCase> &info) {
        return std::to_string(info.param.channels) + "C" +
               std::to_string(info.param.gang) + "G";
    });

} // namespace
} // namespace smtdram
