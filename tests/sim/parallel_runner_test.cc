/** @file Unit tests for the parallel experiment runner. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/figure_spec.hh"
#include "sim/parallel_runner.hh"

namespace smtdram
{
namespace
{

const ExperimentParams kSmall{2000, 500, 42};

/** Bit-exact equality across every figure-visible MixRun metric. */
void
expectIdenticalMixRuns(const MixRun &a, const MixRun &b)
{
    // Doubles compared with ==: the determinism contract is
    // byte-identical results, not merely close ones.
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.run.measuredCycles, b.run.measuredCycles);
    EXPECT_EQ(a.run.ipc, b.run.ipc);
    EXPECT_EQ(a.run.committed, b.run.committed);
    EXPECT_EQ(a.run.rowMissRate, b.run.rowMissRate);
    EXPECT_EQ(a.run.memAccessPer100, b.run.memAccessPer100);
    EXPECT_EQ(a.run.dram.reads, b.run.dram.reads);
    EXPECT_EQ(a.run.dram.writes, b.run.dram.writes);
    EXPECT_EQ(a.run.dram.rowHits, b.run.dram.rowHits);
    EXPECT_EQ(a.run.dram.rowConflicts, b.run.dram.rowConflicts);
    EXPECT_EQ(a.run.dram.busBusyCycles, b.run.dram.busBusyCycles);
    EXPECT_EQ(a.run.dram.readLatency.total(),
              b.run.dram.readLatency.total());
    EXPECT_EQ(a.run.dram.readLatency.mean(),
              b.run.dram.readLatency.mean());
    EXPECT_EQ(a.run.perThreadReads, b.run.perThreadReads);
    EXPECT_EQ(a.run.dram.readLatencyHist.p50(),
              b.run.dram.readLatencyHist.p50());
    EXPECT_EQ(a.run.dram.readLatencyHist.p99(),
              b.run.dram.readLatencyHist.p99());
    EXPECT_EQ(a.run.dram.correctedErrors, b.run.dram.correctedErrors);
    EXPECT_EQ(a.run.dram.retriesExhausted, b.run.dram.retriesExhausted);
}

TEST(ParallelRunner, ParallelIsByteIdenticalToSerialAllSchedulers)
{
    // The tentpole determinism claim: a --jobs 8 sweep over every
    // scheduler, Criticality included, returns exactly what --jobs 1
    // returns.
    const WorkloadMix &mix = mixByName("2-MEM");

    auto sweep = [&](unsigned jobs) {
        ParallelExperimentRunner runner(kSmall, jobs);
        std::vector<std::size_t> ids;
        for (SchedulerKind kind : allSchedulerKindsExtended()) {
            SystemConfig config = SystemConfig::paperDefault(2);
            config.scheduler = kind;
            ids.push_back(runner.submitMix(config, mix));
        }
        runner.run();
        std::vector<MixRun> out;
        for (std::size_t id : ids)
            out.push_back(runner.mixResult(id));
        return out;
    };

    const std::vector<MixRun> serial = sweep(1);
    const std::vector<MixRun> parallel = sweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("scheduler index " + std::to_string(i));
        expectIdenticalMixRuns(parallel[i], serial[i]);
    }
}

TEST(ParallelRunner, BaselinesSimulateExactlyOncePerKey)
{
    // Four mixes over two apps each, all sharing the reference
    // baseline config: the number of alone-IPC simulations must be
    // the number of distinct apps, not the number of (mix, app)
    // requests.
    ParallelExperimentRunner runner(kSmall, 4);
    const WorkloadMix &mix = mixByName("2-MIX");  // gzip + mcf
    for (SchedulerKind kind :
         {SchedulerKind::Fcfs, SchedulerKind::HitFirst,
          SchedulerKind::AgeBased, SchedulerKind::RequestBased}) {
        SystemConfig config = SystemConfig::paperDefault(2);
        config.scheduler = kind;
        runner.submitMix(config, mix);
    }
    runner.run();
    EXPECT_EQ(runner.baselineSimulations(), 2u);
}

TEST(ParallelRunner, PerConfigBaselinesAddKeys)
{
    ParallelExperimentRunner runner(kSmall, 2);
    const WorkloadMix &mix = mixByName("2-MIX");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const std::size_t fixed = runner.submitMix(config, mix, false);
    const std::size_t per_config =
        runner.submitMix(config.withInfiniteL3(), mix, true);
    runner.run();
    // 2 reference baselines + 2 infinite-L3 baselines.
    EXPECT_EQ(runner.baselineSimulations(), 4u);
    // An infinite L3 must not *hurt*; with its own (faster) baselines
    // the weighted speedup is computed against a taller denominator.
    EXPECT_GT(runner.mixResult(fixed).weightedSpeedup, 0.0);
    EXPECT_GT(runner.mixResult(per_config).weightedSpeedup, 0.0);
}

TEST(ParallelRunner, BaselineKeyTellsFetchPoliciesApart)
{
    // DWarn and DG machines print the same configSignature() label.
    // A runner that ran DWarn first must still give DG its own
    // per-config baselines, exactly as a fresh runner does.
    const WorkloadMix &mix = mixByName("2-MEM");
    SystemConfig dwarn = SystemConfig::paperDefault(2);
    SystemConfig dg = dwarn;
    dg.core.fetchPolicy = FetchPolicyKind::Dg;
    ASSERT_EQ(configSignature(dg), configSignature(dwarn));

    ParallelExperimentRunner reused(kSmall, 1);
    reused.submitMix(dwarn, mix, true);
    reused.run();
    const std::size_t id = reused.submitMix(dg, mix, true);
    reused.run();

    ParallelExperimentRunner fresh(kSmall, 1);
    const std::size_t fresh_id = fresh.submitMix(dg, mix, true);
    fresh.run();

    EXPECT_EQ(reused.mixResult(id).weightedSpeedup,
              fresh.mixResult(fresh_id).weightedSpeedup);
    EXPECT_EQ(reused.baselineSimulations(), 4u);
}

TEST(ParallelRunner, BaselineKeyCoversCoreAndCacheFields)
{
    // Each copy differs from the reference machine in one field the
    // label does not name, and each needs its own baseline.
    const SystemConfig reference = SystemConfig::paperDefault(1);
    SystemConfig lq = reference;
    lq.core.lqSize /= 4;
    SystemConfig dg = reference;
    dg.core.fetchPolicy = FetchPolicyKind::Dg;
    SystemConfig mshrs = reference;
    mshrs.hierarchy.l1d.mshrs = 2;

    ParallelExperimentRunner runner(kSmall, 1);
    const double base = runner.aloneIpc("mcf", reference);
    for (const SystemConfig &other : {lq, dg, mshrs}) {
        EXPECT_EQ(configSignature(other), configSignature(reference));
        runner.aloneIpc("mcf", other);
    }
    EXPECT_EQ(runner.baselineSimulations(), 4u);
    EXPECT_NE(runner.aloneIpc("mcf", mshrs), base);
    EXPECT_EQ(runner.baselineSimulations(), 4u);
}

TEST(ParallelRunner, BaselineSharedAcrossThreadCounts)
{
    // The key is the alone machine, so the same per-config cell in a
    // 2-thread and a 4-thread row shares each app's baseline: mcf and
    // ammp once, plus swim and lucas.
    ParallelExperimentRunner runner(kSmall, 2);
    runner.submitMix(SystemConfig::paperDefault(2).withInfiniteL3(),
                     mixByName("2-MEM"), true);
    runner.submitMix(SystemConfig::paperDefault(4).withInfiniteL3(),
                     mixByName("4-MEM"), true);
    runner.run();
    EXPECT_EQ(runner.baselineSimulations(), 4u);
}

TEST(ParallelRunner, OneThreadRunIsItsOwnBaseline)
{
    // mcf alone on its per-config infinite-L3 machine, and alone on
    // the reference machine with an epoch set (observability is
    // inert): each run is its own baseline, so none is simulated.
    const WorkloadMix alone{"mcf", {"mcf"}};
    SystemConfig reference = SystemConfig::paperDefault(1);
    reference.observe.epoch = 1000;

    ParallelExperimentRunner runner(kSmall, 2);
    const std::size_t inf = runner.submitMix(
        SystemConfig::paperDefault(1).withInfiniteL3(), alone, true);
    const std::size_t real = runner.submitMix(reference, alone);
    runner.run();
    EXPECT_EQ(runner.baselineSimulations(), 0u);
    EXPECT_EQ(runner.mixResult(inf).weightedSpeedup, 1.0);
    EXPECT_EQ(runner.mixResult(real).weightedSpeedup, 1.0);
}

TEST(ParallelRunner, CpiBreakdownIsIdenticalAtAnyJobs)
{
    // Figure 1's four machines are ordinary cells: the breakdown comes
    // out the same from a serial and a 4-worker sweep, and the sweep
    // simulates its 4 cells per app and nothing more.
    const FigureSpec &spec = *findFigure("fig1_cpi_breakdown");
    const Flags flags =
        figureFlags(spec, {"--apps=gzip,mcf", "--insts=2000",
                           "--warmup=500", "--seed=42"});
    const Sweep serial = runSweep(spec, flags, 1);
    const Sweep parallel = runSweep(spec, flags, 4);
    EXPECT_EQ(serial.simulations, 8u);
    EXPECT_EQ(parallel.simulations, 8u);
    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t r = 0; r < serial.rows.size(); ++r) {
        SCOPED_TRACE(serial.rows[r].mix.name);
        const CpiBreakdown a = cpiBreakdown(serial.rows[r]);
        const CpiBreakdown b = cpiBreakdown(parallel.rows[r]);
        EXPECT_EQ(a.overall, b.overall);
        EXPECT_EQ(a.proc, b.proc);
        EXPECT_EQ(a.l2, b.l2);
        EXPECT_EQ(a.l3, b.l3);
        EXPECT_EQ(a.mem, b.mem);
    }
}

TEST(ParallelRunner, FirstErrorPropagatesBySubmissionIndex)
{
    ParallelExperimentRunner runner(kSmall, 4);
    const SystemConfig two = SystemConfig::paperDefault(2);
    const SystemConfig four = SystemConfig::paperDefault(4);
    runner.submitMix(two, mixByName("2-ILP"));          // fine
    runner.submitMix(four, mixByName("2-MEM"));         // broken (#1)
    runner.submitMix(two, mixByName("4-MIX"));          // broken (#2)
    try {
        runner.run();
        FAIL() << "run() should rethrow the first job error";
    } catch (const std::invalid_argument &e) {
        // Lowest submission index wins, regardless of wall-clock
        // finish order: the 4-thread-config/2-app mismatch.
        EXPECT_NE(std::string(e.what()).find("2-MEM"),
                  std::string::npos)
            << "got: " << e.what();
    }
}

TEST(ParallelRunner, RunIsIncremental)
{
    ParallelExperimentRunner runner(kSmall, 2);
    const WorkloadMix &mix = mixByName("2-ILP");
    const SystemConfig config = SystemConfig::paperDefault(2);
    const std::size_t first = runner.submitMix(config, mix);
    runner.run();
    const MixRun snapshot = runner.mixResult(first);
    const std::size_t second = runner.submitMix(config, mix);
    runner.run();
    // Earlier results survive later runs; identical submissions give
    // identical results.
    expectIdenticalMixRuns(runner.mixResult(first), snapshot);
    expectIdenticalMixRuns(runner.mixResult(second), snapshot);
    EXPECT_EQ(runner.submitted(), 2u);
}

TEST(ParallelRunner, ZeroJobsClampsToSerial)
{
    ParallelExperimentRunner runner(kSmall, 0);
    EXPECT_EQ(runner.jobs(), 1u);
}

/** This process's thread count, from /proc/self/status (0 if absent). */
unsigned
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
    return 0;
}

TEST(ParallelRunner, PoolNoLargerThanPendingJobs)
{
    // Eight workers asked for, two jobs pending: a sampler thread
    // polls the process's thread count while run() executes.
    ParallelExperimentRunner runner(kSmall, 8);
    for (SchedulerKind kind : {SchedulerKind::Fcfs, SchedulerKind::HitFirst}) {
        SystemConfig config = SystemConfig::paperDefault(2);
        config.scheduler = kind;
        runner.submitMix(config, mixByName("2-MEM"));
    }

    std::atomic<bool> running{true};
    std::atomic<unsigned> peak{0};
    std::thread sampler([&] {
        while (running.load()) {
            peak.store(std::max(peak.load(), processThreads()));
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });
    while (peak.load() == 0)
        std::this_thread::yield();
    // This thread and the sampler.
    const unsigned before = processThreads();
    ASSERT_GT(before, 0u) << "no Threads: line in /proc/self/status";
    runner.run();
    running = false;
    sampler.join();

    EXPECT_GT(peak.load(), before) << "the sampler never saw the pool";
    EXPECT_LE(peak.load() - before, 2u);
}

} // namespace
} // namespace smtdram
