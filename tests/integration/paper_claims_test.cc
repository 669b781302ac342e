/**
 * @file
 * Integration tests asserting the paper's qualitative claims end to
 * end on shortened runs.  These are the "shape" checks behind the
 * figures in EXPERIMENTS.md; the benches print the full sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/figure_spec.hh"
#include "sim/parallel_runner.hh"

namespace smtdram
{
namespace
{

/** Queue one mix on @p runner, run it and return its result. */
MixRun
runMix(ParallelExperimentRunner &runner, const SystemConfig &config,
       const WorkloadMix &mix)
{
    const std::size_t id = runner.submitMix(config, mix);
    runner.run();
    return runner.mixResult(id);
}

MixRun
runWith(const char *mix_name,
        const std::function<void(SystemConfig &)> &tweak)
{
    // Shared runner so single-thread baselines are computed once.
    static ParallelExperimentRunner runner({8000, 4000, 42}, 1);
    const WorkloadMix &mix = mixByName(mix_name);
    SystemConfig config = SystemConfig::paperDefault(
        static_cast<std::uint32_t>(mix.apps.size()));
    tweak(config);
    return runMix(runner, config, mix);
}

// ---- Figure 1 claim -------------------------------------------------

/** Figure 1's rows for @p apps, each with its CPI breakdown. */
std::vector<std::pair<std::string, CpiBreakdown>>
fig1Breakdowns(const std::string &apps)
{
    const FigureSpec &spec = *findFigure("fig1_cpi_breakdown");
    const Sweep sweep = runSweep(
        spec,
        figureFlags(spec, {"--apps=" + apps, "--insts=20000",
                           "--warmup=12000", "--seed=42"}),
        /*jobs=*/1);
    std::vector<std::pair<std::string, CpiBreakdown>> out;
    for (const SweepRow &row : sweep.rows)
        out.emplace_back(row.mix.name, cpiBreakdown(row));
    return out;
}

TEST(PaperClaims, McfHasLargestCpiMem)
{
    const auto rows = fig1Breakdowns("mcf,gzip,bzip2,eon,swim,vpr");
    const CpiBreakdown &mcf = rows.at(0).second;
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_GT(mcf.mem, rows[i].second.mem) << rows[i].first;
}

TEST(PaperClaims, IlpAppsHaveNegligibleCpiMem)
{
    for (const auto &[app, b] : fig1Breakdowns("gzip,eon,sixtrack"))
        EXPECT_LT(b.mem, 0.25 * b.overall) << app;
}

// ---- Figure 3 claims ------------------------------------------------

TEST(PaperClaims, MemMixLosesMostPerformanceToDram)
{
    const MixRun real = runWith("2-MEM", [](SystemConfig &) {});
    const MixRun infinite = runWith("2-MEM", [](SystemConfig &c) {
        c.hierarchy.l3.infinite = true;
    });
    // Paper: 2-MEM loses 73.4% against the infinite-L3 reference.
    EXPECT_LT(real.weightedSpeedup, 0.55 * infinite.weightedSpeedup);
}

TEST(PaperClaims, IlpMixBarelyLosesToDram)
{
    const MixRun real = runWith("2-ILP", [](SystemConfig &) {});
    const MixRun infinite = runWith("2-ILP", [](SystemConfig &c) {
        c.hierarchy.l3.infinite = true;
    });
    EXPECT_GT(real.weightedSpeedup, 0.85 * infinite.weightedSpeedup);
}

// ---- Figure 4/5 claims ----------------------------------------------

TEST(PaperClaims, MemWorkloadsClusterRequests)
{
    const MixRun r = runWith("4-MEM", [](SystemConfig &) {});
    // Paper: nearly all requests arrive in groups for 4-MEM.
    EXPECT_GT(r.run.outstandingHist.fractionAbove(1), 0.9);
}

TEST(PaperClaims, ConcurrencyGrowsWithThreads)
{
    const MixRun two = runWith("2-MEM", [](SystemConfig &) {});
    const MixRun eight = runWith("8-MEM", [](SystemConfig &) {});
    EXPECT_GT(eight.run.outstandingHist.fractionAbove(8),
              two.run.outstandingHist.fractionAbove(8));
}

TEST(PaperClaims, MemConcurrencyComesFromManyThreads)
{
    const MixRun r = runWith("4-MEM", [](SystemConfig &) {});
    // Most samples involve at least 3 of the 4 threads.
    EXPECT_GT(r.run.threadsHist.fractionAbove(2), 0.5);
}

// ---- Figure 6 claim -------------------------------------------------

TEST(PaperClaims, ChannelScalingHelpsMemMixes)
{
    const MixRun two = runWith("4-MEM", [](SystemConfig &) {});
    const MixRun eight = runWith("4-MEM", [](SystemConfig &c) {
        const MappingScheme mapping = c.dram.mapping;
        c.dram = DramConfig::ddrSdram(8);
        c.dram.mapping = mapping;
    });
    // Paper: +153.8% for 4-MEM; we only require a strong gain.
    EXPECT_GT(eight.weightedSpeedup, 1.4 * two.weightedSpeedup);
}

// ---- Figure 7 claim -------------------------------------------------

TEST(PaperClaims, IndependentChannelsBeatGanged)
{
    const MixRun independent = runWith("2-MEM", [](SystemConfig &) {});
    const MixRun ganged = runWith("2-MEM", [](SystemConfig &c) {
        const MappingScheme mapping = c.dram.mapping;
        c.dram = DramConfig::ddrSdram(2, 2);
        c.dram.mapping = mapping;
    });
    EXPECT_GT(independent.weightedSpeedup,
              1.1 * ganged.weightedSpeedup);
}

// ---- Figure 8/9 claims ----------------------------------------------

TEST(PaperClaims, XorMappingReducesRowMissesOnRdram)
{
    auto rate = [](MappingScheme scheme) {
        return runWith("4-MEM", [scheme](SystemConfig &c) {
                   c.dram = DramConfig::directRambus(2);
                   c.dram.mapping = scheme;
               })
            .run.rowMissRate;
    };
    const double page = rate(MappingScheme::PageInterleave);
    const double xored = rate(MappingScheme::XorPermute);
    EXPECT_LT(xored, page);
}

TEST(PaperClaims, RdramManyBanksBeatDdrFewBanks)
{
    // More banks -> fewer row-buffer conflicts for the same load.
    const MixRun ddr = runWith("4-MEM", [](SystemConfig &) {});
    const MixRun rdram = runWith("4-MEM", [](SystemConfig &c) {
        const MappingScheme mapping = c.dram.mapping;
        c.dram = DramConfig::directRambus(2);
        c.dram.mapping = mapping;
    });
    EXPECT_LT(rdram.run.rowMissRate, ddr.run.rowMissRate);
}

// ---- Figure 10 claim ------------------------------------------------

TEST(PaperClaims, ThreadAwareSchedulingHelpsMemMixes)
{
    // The paper's largest gains appear on MEM mixes.  In this
    // reproduction the effect is clearest on 4-MEM (see
    // EXPERIMENTS.md for the 2-MEM magnitude deviation): the best
    // thread-aware scheme must beat FCFS, and scheduling overall
    // must not be a wash.
    ParallelExperimentRunner local({20000, 10000, 42}, 1);
    auto ws = [&local](SchedulerKind scheduler) {
        SystemConfig config = SystemConfig::paperDefault(4);
        config.scheduler = scheduler;
        return runMix(local, config, mixByName("4-MEM")).weightedSpeedup;
    };
    const double fcfs = ws(SchedulerKind::Fcfs);
    const double best_thread_aware =
        std::max({ws(SchedulerKind::RequestBased),
                  ws(SchedulerKind::RobBased),
                  ws(SchedulerKind::IqBased)});
    EXPECT_GT(best_thread_aware, 1.01 * fcfs);
}

} // namespace
} // namespace smtdram
