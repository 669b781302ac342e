/**
 * @file
 * Differential kernel-equivalence harness: the per-cycle kernel and
 * the skip-to-next-event kernel must produce byte-identical results.
 *
 * Every test runs the same configuration once per KernelMode and
 * diffs (a) all RunResult figure metrics, (b) the full stats-registry
 * JSON, and (c) the dumpState() diagnostic text — the last two
 * byte-for-byte.  The matrix test covers every scheduler with
 * refresh, fault injection, ECC + patrol scrub, the low-power state
 * machine, rowhammer tracking + mitigation, and the conservation
 * checker all enabled at once.  A traced run also diffs the trace
 * document byte-for-byte.
 *
 * Run without SMTDRAM_KERNEL in the environment: the process-wide
 * override would collapse both rows onto one kernel and the
 * comparison would be vacuous.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/smt_system.hh"
#include "temp_path.hh"

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

/** Everything one run exposes, captured for a byte-level diff. */
struct Snapshot {
    RunResult r;
    std::string statsJson;
    std::string dump;
    // Hierarchy counters neither the stats JSON nor the dump shows;
    // blocked-probe replays (and the skip kernel's replay of them)
    // move exactly these.
    std::uint64_t blocked = 0;
    std::uint64_t dtlbHits = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t itlbHits = 0;
    std::uint64_t itlbMisses = 0;
};

Snapshot
runKernel(SystemConfig config, const std::vector<AppProfile> &apps,
          std::uint64_t seed, KernelMode mode,
          std::uint64_t insts = 2'000, std::uint64_t warmup = 500)
{
    config.kernel = mode;
    // A stats registry only exists when an output is configured;
    // point it at the bit bucket so run() can flush harmlessly.
    config.observe.statsJsonPath = "/dev/null";
    Snapshot s;
    SmtSystem system(config, apps, seed);
    s.r = system.run(insts, warmup);
    std::ostringstream json;
    system.statsRegistry()->writeJson(json, s.r.measuredCycles);
    s.statsJson = json.str();
    std::ostringstream dump;
    system.dumpState(dump);
    s.dump = dump.str();
    const Hierarchy &h = system.hierarchy();
    s.blocked = h.blockedAccesses();
    s.dtlbHits = h.dtlb().stats().hits();
    s.dtlbMisses = h.dtlb().stats().misses();
    s.itlbHits = h.itlb().stats().hits();
    s.itlbMisses = h.itlb().stats().misses();
    return s;
}

void
expectHistogramsEqual(const LogHistogram &a, const LogHistogram &b)
{
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
}

void
expectEquivalent(const Snapshot &cyc, const Snapshot &evt)
{
    // Figure metrics, exact to the last bit: both kernels execute the
    // identical sequence of architected cycles, so even the derived
    // doubles must match bitwise.
    EXPECT_EQ(cyc.r.measuredCycles, evt.r.measuredCycles);
    EXPECT_EQ(cyc.r.committed, evt.r.committed);
    EXPECT_EQ(cyc.r.ipc, evt.r.ipc);
    EXPECT_EQ(cyc.r.rowMissRate, evt.r.rowMissRate);
    EXPECT_EQ(cyc.r.memAccessPer100, evt.r.memAccessPer100);
    EXPECT_EQ(cyc.r.intIssueActiveFrac, evt.r.intIssueActiveFrac);
    EXPECT_EQ(cyc.r.branchMispredictRate, evt.r.branchMispredictRate);
    EXPECT_EQ(cyc.r.perThreadReads, evt.r.perThreadReads);
    EXPECT_EQ(cyc.r.dram.reads, evt.r.dram.reads);
    EXPECT_EQ(cyc.r.dram.writes, evt.r.dram.writes);
    EXPECT_EQ(cyc.r.power.totalEnergy, evt.r.power.totalEnergy);
    EXPECT_EQ(cyc.r.hammer.activations, evt.r.hammer.activations);
    EXPECT_EQ(cyc.r.hammer.victimFlips, evt.r.hammer.victimFlips);

    // Figure 4/5 histograms: the event-driven kernel accounts skipped
    // windows with interval-weighted samples; the totals and every
    // bucket must still match the per-cycle tally exactly.
    expectHistogramsEqual(cyc.r.outstandingHist, evt.r.outstandingHist);
    expectHistogramsEqual(cyc.r.threadsHist, evt.r.threadsHist);
    EXPECT_EQ(cyc.r.bandwidthShareHist.total(),
              evt.r.bandwidthShareHist.total());
    EXPECT_EQ(cyc.r.bandwidthShareHist.min(),
              evt.r.bandwidthShareHist.min());
    EXPECT_EQ(cyc.r.bandwidthShareHist.max(),
              evt.r.bandwidthShareHist.max());
    EXPECT_EQ(cyc.r.bandwidthShareHist.mean(),
              evt.r.bandwidthShareHist.mean());

    // Whole observability surface, byte-for-byte.
    EXPECT_EQ(cyc.statsJson, evt.statsJson);
    EXPECT_EQ(cyc.dump, evt.dump);

    EXPECT_EQ(cyc.blocked, evt.blocked);
    EXPECT_EQ(cyc.dtlbHits, evt.dtlbHits);
    EXPECT_EQ(cyc.dtlbMisses, evt.dtlbMisses);
    EXPECT_EQ(cyc.itlbHits, evt.itlbHits);
    EXPECT_EQ(cyc.itlbMisses, evt.itlbMisses);
}

/** The full optimization matrix the paper sweeps, plus every
 *  robustness subsystem this repo adds on top. */
SystemConfig
fullFeatureConfig(SchedulerKind scheduler)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.scheduler = scheduler;
    config.dram.withRefresh();
    config.dram.faults.enabled = true;
    config.dram.faults.seed = 9;
    config.dram.faults.busStallProbability = 0.001;
    config.dram.faults.busStallCycles = 12;
    config.dram.faults.readErrorProbability = 0.002;
    config.dram.faults.enqueueDelayProbability = 0.01;
    config.dram.faults.enqueueDelayMax = 24;
    config.dram.withEcc(/*correctable_prob=*/1e-4,
                        /*uncorrectable_prob=*/1e-6,
                        /*scrub_interval=*/8'192);
    config.dram.withPowerManagement();
    config.dram.withHammer(/*threshold=*/512,
                           /*flip_probability=*/0.002);
    config.dram.withHammerMitigation(/*tracker_capacity=*/16,
                                     /*mitigation_threshold=*/128);
    config.dram.checkerEnabled = true;
    return config;
}

class KernelEquivalenceAllSchedulers
    : public testing::TestWithParam<SchedulerKind>
{
};

TEST_P(KernelEquivalenceAllSchedulers, FullFeatureMatrix)
{
    const SystemConfig config = fullFeatureConfig(GetParam());
    const std::vector<AppProfile> apps = mixProfiles("2-MEM");
    const Snapshot cyc =
        runKernel(config, apps, 42, KernelMode::PerCycle);
    const Snapshot evt =
        runKernel(config, apps, 42, KernelMode::EventDriven);
    expectEquivalent(cyc, evt);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, KernelEquivalenceAllSchedulers,
    testing::Values(SchedulerKind::Fcfs, SchedulerKind::HitFirst,
                    SchedulerKind::AgeBased, SchedulerKind::RequestBased,
                    SchedulerKind::RobBased, SchedulerKind::IqBased,
                    SchedulerKind::CriticalityBased),
    [](const testing::TestParamInfo<SchedulerKind> &info) {
        std::string name = schedulerName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](unsigned char c) {
                                      return !std::isalnum(c);
                                  }),
                   name.end());
        return name;
    });

TEST(KernelEquivalence, BaselinePaperConfig)
{
    const SystemConfig config = SystemConfig::paperDefault(2);
    const std::vector<AppProfile> apps = mixProfiles("2-MIX");
    expectEquivalent(runKernel(config, apps, 42, KernelMode::PerCycle),
                     runKernel(config, apps, 42,
                               KernelMode::EventDriven));
}

TEST(KernelEquivalence, SingleThreadMemoryBound)
{
    // The configuration with the longest skippable stall windows —
    // the case the event-driven kernel rewrites most aggressively.
    const SystemConfig config = SystemConfig::paperDefault(1);
    const std::vector<AppProfile> apps = {specProfile("mcf")};
    expectEquivalent(runKernel(config, apps, 7, KernelMode::PerCycle),
                     runKernel(config, apps, 7,
                               KernelMode::EventDriven));
}

TEST(KernelEquivalence, EightThreadMix)
{
    const SystemConfig config = SystemConfig::paperDefault(8);
    const std::vector<AppProfile> apps = mixProfiles("8-MIX");
    expectEquivalent(
        runKernel(config, apps, 42, KernelMode::PerCycle, 1'000, 300),
        runKernel(config, apps, 42, KernelMode::EventDriven, 1'000,
                  300));
}

TEST(KernelEquivalence, EpochSamplingLandsOnIdenticalCycles)
{
    // Epoch boundaries clamp the jump, so the time-series rows the
    // registry accumulates must be sampled at exactly the same
    // cycles; the JSON diff catches any drift.
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.epoch = 512;
    const std::vector<AppProfile> apps = mixProfiles("2-MEM");
    expectEquivalent(runKernel(config, apps, 42, KernelMode::PerCycle),
                     runKernel(config, apps, 42,
                               KernelMode::EventDriven));
}

TEST(KernelEquivalence, ClosePageMode)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram.pageMode = PageMode::Close;
    config.dram.withRefresh();
    const std::vector<AppProfile> apps = mixProfiles("2-MEM");
    expectEquivalent(runKernel(config, apps, 42, KernelMode::PerCycle),
                     runKernel(config, apps, 42,
                               KernelMode::EventDriven));
}

TEST(KernelEquivalence, MshrStarvedMemoryMix)
{
    // Two MSHRs per level: loads and write-buffer stores block on
    // most cycles, so the core gates their re-probes on the
    // hierarchy's resource generation.  Both kernels must replay the
    // same probes in the same order, and the skip kernel must not
    // jump over a cycle that replays one.
    SystemConfig config = SystemConfig::paperDefault(4);
    config.hierarchy.l1d.mshrs = 2;
    config.hierarchy.l2.mshrs = 2;
    config.hierarchy.l3.mshrs = 2;
    const std::vector<AppProfile> apps = mixProfiles("4-MEM");
    const Snapshot cyc =
        runKernel(config, apps, 42, KernelMode::PerCycle);
    const Snapshot evt =
        runKernel(config, apps, 42, KernelMode::EventDriven);
    // Not vacuous: blocked probes outnumber cycles.
    EXPECT_GT(cyc.blocked, cyc.r.measuredCycles);
    expectEquivalent(cyc, evt);
}

TEST(KernelEquivalence, LongTlbPenaltyWrapsCompletionRing)
{
    // A 200-cycle TLB miss penalty stretches a load hit's issue-to-
    // complete delay to 202 cycles, so the core's completion ring
    // grows past 64 buckets (to 256) and wraps every 256 cycles with
    // next-cycle and far-out completions pending together.
    SystemConfig config = SystemConfig::paperDefault(2);
    config.hierarchy.tlbMissPenalty = 200;
    const std::vector<AppProfile> apps = mixProfiles("2-MIX");
    const Snapshot cyc =
        runKernel(config, apps, 42, KernelMode::PerCycle);
    const Snapshot evt =
        runKernel(config, apps, 42, KernelMode::EventDriven);
    // Not vacuous: TLB misses happen and the run spans many wraps.
    EXPECT_GT(cyc.dtlbMisses, 0u);
    EXPECT_GT(cyc.r.measuredCycles, 10u * 256u);
    expectEquivalent(cyc, evt);
}

TEST(KernelEquivalence, TracedRunWritesIdenticalTrace)
{
    // Tracing does not hold the event kernel to per-cycle stepping:
    // it skips as usual, and SmtCore::skipCycles() opens the
    // fetch-stall spans a skipped cycle would have opened.  The
    // trace document itself must come out byte-identical.
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram.withRefresh();
    config.dram.withPowerManagement();
    config.observe.epoch = 1'000;
    const std::vector<AppProfile> apps = mixProfiles("2-MEM");
    const KernelMode modes[2] = {KernelMode::PerCycle,
                                 KernelMode::EventDriven};
    Snapshot runs[2];
    std::string traces[2];
    for (int i = 0; i < 2; ++i) {
        SystemConfig traced = config;
        traced.observe.tracePath =
            testArtifactPath(i == 0 ? "cycle.json" : "event.json");
        runs[i] = runKernel(traced, apps, 42, modes[i]);
        std::ifstream in(traced.observe.tracePath);
        std::ostringstream ss;
        ss << in.rdbuf();
        traces[i] = ss.str();
        std::remove(traced.observe.tracePath.c_str());
    }
    EXPECT_NE(traces[0].find("\"name\":\"fetch-stall\""),
              std::string::npos);
    expectEquivalent(runs[0], runs[1]);
    EXPECT_EQ(traces[0], traces[1]);
}

TEST(KernelEquivalence, RdramPart)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.dram = DramConfig::directRambus(2);
    const std::vector<AppProfile> apps = mixProfiles("2-MEM");
    expectEquivalent(runKernel(config, apps, 42, KernelMode::PerCycle),
                     runKernel(config, apps, 42,
                               KernelMode::EventDriven));
}

} // namespace
} // namespace smtdram
