/** @file Unit tests for the experiment helpers. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/figure_spec.hh"
#include "sim/parallel_runner.hh"
#include "workload/hammer_workload.hh"

namespace smtdram
{
namespace
{

// The ExperimentContext cases cover the experiment layer's baseline
// memo and weighted speedup, both owned by ParallelExperimentRunner.

/** Queue one mix on @p runner, run it and return its result. */
MixRun
runMix(ParallelExperimentRunner &runner, const SystemConfig &config,
       const WorkloadMix &mix, bool per_config_baselines = false)
{
    const std::size_t id =
        runner.submitMix(config, mix, per_config_baselines);
    runner.run();
    return runner.mixResult(id);
}

const SystemConfig kReference = SystemConfig::paperDefault(1);

TEST(ExperimentContext, AloneIpcIsCachedAndStable)
{
    ParallelExperimentRunner runner({5000, 2000, 42}, 1);
    const double first = runner.aloneIpc("gzip", kReference);
    const double second = runner.aloneIpc("gzip", kReference);
    EXPECT_DOUBLE_EQ(first, second);
    EXPECT_EQ(runner.baselineSimulations(), 1u);
    EXPECT_GT(first, 0.5);
}

TEST(ExperimentContext, WeightedSpeedupDefinition)
{
    // With N copies of similar load, weighted speedup is bounded by
    // N and positive.
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const MixRun r = runMix(runner, SystemConfig::paperDefault(2),
                            mixByName("2-ILP"));
    EXPECT_GT(r.weightedSpeedup, 0.5);
    EXPECT_LE(r.weightedSpeedup, 2.1);
}

TEST(ExperimentContext, MixRunMatchesManualComputation)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const WorkloadMix &mix = mixByName("2-MIX");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const MixRun r = runMix(runner, config, mix);
    const double manual =
        r.run.ipc[0] / runner.aloneIpc("gzip", kReference) +
        r.run.ipc[1] / runner.aloneIpc("mcf", kReference);
    EXPECT_NEAR(r.weightedSpeedup, manual, 1e-9);
}

/** Figure 1's breakdown of each app in @p apps (comma-separated),
 *  from the figure's own sweep at seed 42. */
std::vector<CpiBreakdown>
fig1Breakdowns(const std::string &apps, int insts, int warmup)
{
    const FigureSpec &spec = *findFigure("fig1_cpi_breakdown");
    const Sweep sweep = runSweep(
        spec,
        figureFlags(spec, {"--apps=" + apps,
                           "--insts=" + std::to_string(insts),
                           "--warmup=" + std::to_string(warmup),
                           "--seed=42"}),
        /*jobs=*/1);
    std::vector<CpiBreakdown> out;
    for (const SweepRow &row : sweep.rows)
        out.push_back(cpiBreakdown(row));
    return out;
}

TEST(CpiBreakdown, ComponentsAreNonNegativeAndSum)
{
    const CpiBreakdown b = fig1Breakdowns("gzip", 4000, 2000).at(0);
    EXPECT_GT(b.proc, 0.0);
    EXPECT_GE(b.l2, 0.0);
    EXPECT_GE(b.l3, 0.0);
    EXPECT_GE(b.mem, 0.0);
    // The methodology decomposes overall into the four parts.
    EXPECT_NEAR(b.proc + b.l2 + b.l3 + b.mem, b.overall,
                0.25 * b.overall + 0.05);
}

TEST(CpiBreakdown, McfIsMemoryBoundGzipIsNot)
{
    const std::vector<CpiBreakdown> b =
        fig1Breakdowns("mcf,gzip", 12000, 8000);
    const CpiBreakdown &mcf = b.at(0);
    const CpiBreakdown &gzip = b.at(1);
    EXPECT_GT(mcf.mem, 1.0);
    EXPECT_GT(mcf.mem, 5.0 * gzip.mem);
    EXPECT_LT(gzip.mem, 0.5);
}

TEST(ProfilesForMix, ResolvesAllApps)
{
    const auto apps = profilesForMix(mixByName("4-MEM"));
    ASSERT_EQ(apps.size(), 4u);
    EXPECT_EQ(apps[0].name, "mcf");
    EXPECT_EQ(apps[3].name, "lucas");
}

TEST(ConfigSignature, DistinguishesMemoryConfigurations)
{
    const SystemConfig base = SystemConfig::paperDefault(2);

    SystemConfig channels = base;
    channels.dram = DramConfig::ddrSdram(8);
    SystemConfig ganged = base;
    ganged.dram = DramConfig::ddrSdram(2, 2);
    SystemConfig mapping = base;
    mapping.dram.mapping = MappingScheme::PageInterleave;
    SystemConfig mode = base;
    mode.dram.pageMode = PageMode::Close;
    SystemConfig sched = base;
    sched.scheduler = SchedulerKind::RequestBased;
    SystemConfig inf = base.withInfiniteL3();
    SystemConfig pf = base;
    pf.hierarchy.prefetchNextLine = true;

    const std::string sig = configSignature(base);
    for (const SystemConfig &other :
         {channels, ganged, mapping, mode, sched, inf, pf}) {
        EXPECT_NE(configSignature(other), sig);
    }
    // Thread count is not part of the memory-system label.
    SystemConfig threads = SystemConfig::paperDefault(4);
    EXPECT_EQ(configSignature(threads), sig);
}

TEST(ConfigSignature, KernelModeIsInert)
{
    // Both kernels are proven byte-identical by the differential
    // equivalence suite, so the label leaves the knob out (same
    // contract as the observability block).
    const SystemConfig base = SystemConfig::paperDefault(2);
    SystemConfig cycle = base;
    cycle.kernel = KernelMode::PerCycle;
    EXPECT_EQ(configSignature(cycle), configSignature(base));
}

TEST(ConfigSignature, HammerBlockOnlyWhenEnabled)
{
    const SystemConfig base = SystemConfig::paperDefault(2);
    const std::string sig = configSignature(base);
    EXPECT_EQ(sig.find("-ham"), std::string::npos);

    // Inert hammer knobs stay out of the label: only `enabled` gates
    // the block.
    SystemConfig inert = base;
    inert.dram.hammer.hammerThreshold = 1;
    inert.dram.hammer.seed = 999;
    EXPECT_EQ(configSignature(inert), sig);

    SystemConfig on = base;
    on.dram.withHammer(512, 0.01, 2);
    const std::string on_sig = configSignature(on);
    EXPECT_NE(on_sig.find("-ham"), std::string::npos);
    EXPECT_EQ(on_sig.find("-mit"), std::string::npos);

    // Every disturbance knob and the seed are outcome-relevant.
    SystemConfig seed = on;
    seed.dram.hammer.seed = 999;
    EXPECT_NE(configSignature(seed), on_sig);
    SystemConfig thr = on;
    thr.dram.hammer.hammerThreshold = 256;
    EXPECT_NE(configSignature(thr), on_sig);

    SystemConfig mit = on;
    mit.dram.withHammerMitigation(8, 64);
    const std::string mit_sig = configSignature(mit);
    EXPECT_NE(mit_sig.find("-mit"), std::string::npos);
    EXPECT_NE(mit_sig, on_sig);
    SystemConfig cap = mit;
    cap.dram.hammer.trackerCapacity = 4;
    EXPECT_NE(configSignature(cap), mit_sig);
}

TEST(ConfigSignature, LongFaultSuffixIsNotTruncated)
{
    // Every fault knob at full width runs the suffix past the 96 bytes
    // a fixed buffer held; the seed, printed last, must survive whole.
    SystemConfig a = SystemConfig::paperDefault(2);
    FaultConfig &f = a.dram.faults;
    f.enabled = true;
    f.busStallProbability = 0.123456789;
    f.readErrorProbability = 0.123456789;
    f.enqueueDelayProbability = 0.123456789;
    f.busStallCycles = 123456789012345;
    f.retryBackoff = 123456789012345;
    f.enqueueDelayMax = 123456789012345;
    f.maxRetries = std::numeric_limits<std::uint32_t>::max();
    f.seed = std::numeric_limits<std::uint64_t>::max();
    SystemConfig b = a;
    b.dram.faults.seed = f.seed - 1;

    const std::string sig_a = configSignature(a);
    const std::string sig_b = configSignature(b);
    EXPECT_NE(sig_a, sig_b);
    EXPECT_TRUE(sig_a.ends_with("s18446744073709551615")) << sig_a;
    EXPECT_TRUE(sig_b.ends_with("s18446744073709551614")) << sig_b;
}

TEST(ProfilesForMix, ResolvesHammerThreadsInHostileMixes)
{
    const WorkloadMix mix = hostileMix("2-MEM", "hammer-double");
    EXPECT_EQ(mix.name, "2-MEM+hammer-double");
    const auto apps = profilesForMix(mix);
    ASSERT_EQ(apps.size(), 3u);
    EXPECT_EQ(apps[2].name, "hammer-double");
    EXPECT_EQ(apps[2].coldPattern, AccessPattern::RowHammer);
    EXPECT_EQ(apps[2].hammerSides, 2u);
    // Geometry must match the Table 1 2-channel DDR system: adjacent
    // same-bank rows are channels*banks*rowBytes apart.
    const DramConfig dram = DramConfig::ddrSdram(2);
    EXPECT_EQ(apps[2].hammerRowStrideBytes,
              dram.logicalChannels() * dram.banksPerChannel() *
                  dram.effectiveRowBytes());
    // Stores would repair the victims the experiment measures.
    EXPECT_EQ(apps[2].storeFrac, 0.0);
}

TEST(ExperimentContext, PerConfigBaselinesDiffer)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const SystemConfig inf = kReference.withInfiniteL3();
    const double real_ipc = runner.aloneIpc("mcf", kReference);
    const double inf_ipc = runner.aloneIpc("mcf", inf);
    // mcf is memory-bound: an infinite L3 transforms it.
    EXPECT_GT(inf_ipc, 2.0 * real_ipc);
    // Cached: repeated queries are stable.
    EXPECT_DOUBLE_EQ(runner.aloneIpc("mcf", inf), inf_ipc);
    EXPECT_EQ(runner.baselineSimulations(), 2u);
}

TEST(ExperimentContext, PerConfigWeightedSpeedupUsesOwnBaselines)
{
    ParallelExperimentRunner runner({4000, 2000, 42}, 1);
    const WorkloadMix &mix = mixByName("2-MEM");
    SystemConfig inf = SystemConfig::paperDefault(2).withInfiniteL3();
    const MixRun fixed = runMix(runner, inf, mix, false);
    const MixRun per_config = runMix(runner, inf, mix, true);
    // Fixed baselines (real machine) inflate the infinite-L3 WS.
    EXPECT_GT(fixed.weightedSpeedup,
              1.5 * per_config.weightedSpeedup);
}

} // namespace
} // namespace smtdram
