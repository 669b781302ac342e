/**
 * @file
 * Latency-blame attribution properties, for ANY scheduler with every
 * interference source enabled at once (refresh + ECC/scrub + faults +
 * power states + hammer mitigation):
 *
 *  - conservation: sum(blame components) == completion - arrival for
 *    every request (the shadow checker asserts it on each retirement,
 *    and the launch-lockstep aggregate reconciles exactly with the
 *    readLatency distribution);
 *  - row-sum consistency: once drained, the interference matrix row
 *    of thread t equals the occupancy-type components (queueing,
 *    refresh, scrub, hammer mitigation) summed over t's completed
 *    demand reads;
 *  - kernel independence: per-cycle stepping and event skipping
 *    attribute byte-identically, both when driving a DramSystem
 *    directly through nextEventAt() and through the SmtSystem
 *    kernel modes.
 *
 * Seeds are drawn from a fixed root and logged, so any failure
 * replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/dram_system.hh"
#include "sim/smt_system.hh"

namespace smtdram
{
namespace
{

/** Every interference source at once, tuned hot enough that each
 *  component actually claims cycles in a short run. */
DramConfig
loadedConfig(bool with_faults)
{
    DramConfig config = DramConfig::ddrSdram(2);
    config.withRefresh();
    config.withEcc(1e-3, 1e-5, /*scrub_interval=*/2'000);
    if (with_faults) {
        config.faults.enabled = true;
        config.faults.seed = 99;
        config.faults.busStallProbability = 0.002;
        config.faults.busStallCycles = 24;
        config.faults.readErrorProbability = 0.01;
        config.faults.enqueueDelayProbability = 0.05;
        config.faults.enqueueDelayMax = 32;
    }
    config.withPowerManagement(/*pd_idle=*/32, /*slow_idle=*/128,
                               /*sr_idle=*/512);
    config.withHammer(/*threshold=*/64, /*flip_probability=*/0.01);
    config.withHammerMitigation(/*tracker_capacity=*/4,
                                /*mitigation_threshold=*/32);
    config.checkerEnabled = true;  // asserts per-request conservation
    // The synthetic driver has no MSHR-style backpressure; size the
    // queues above the trace length so bursts can pile up freely.
    config.readQueueCap = 512;
    config.writeQueueCap = 512;
    return config;
}

struct Item {
    Cycle at = 0;
    Addr addr = 0;
    bool write = false;
    ThreadId thread = 0;
};

/** Deterministic traffic: bursty arrivals over few banks/rows so
 *  queueing, conflicts, and hammer pressure all materialize. */
std::vector<Item>
drawTraffic(std::uint64_t seed, std::uint32_t threads)
{
    Rng rng(seed);
    std::vector<Item> items;
    Cycle at = 0;
    for (int i = 0; i < 300; ++i) {
        at += rng.below(20);
        Item it;
        it.at = at;
        // A handful of rows across a few consecutive lines: row hits,
        // conflicts, and repeated aggressor activations.
        it.addr = static_cast<Addr>(rng.below(8)) * 8'192 +
                  static_cast<Addr>(rng.below(16)) * 64;
        it.write = rng.chance(0.25);
        it.thread = static_cast<ThreadId>(rng.below(threads));
        items.push_back(it);
    }
    return items;
}

struct DriveResult {
    ControllerStats agg;
    std::string dump;
};

/** Run the same pre-drawn traffic per-cycle or event-skipping. */
DriveResult
drive(const DramConfig &config, SchedulerKind kind,
      const std::vector<Item> &items, bool event_skip)
{
    DramSystem sys(config, kind);
    std::size_t next = 0;
    Cycle now = 0;
    while (next < items.size() || sys.busy()) {
        Cycle step_to = event_skip ? sys.nextEventAt(now) : now + 1;
        if (next < items.size()) {
            step_to = std::min(step_to,
                               std::max(items[next].at, now + 1));
        }
        EXPECT_NE(step_to, kCycleNever) << "quiescent with no arrivals";
        now = step_to;
        while (next < items.size() && items[next].at <= now) {
            const Item &it = items[next++];
            if (it.write)
                sys.enqueueWrite(it.addr, now);
            else
                sys.enqueueRead(it.addr, it.thread, {}, now);
        }
        sys.tick(now);
        if (now >= Cycle{2'000'000}) {
            ADD_FAILURE() << "traffic failed to drain";
            break;
        }
    }
    DriveResult r;
    r.agg = sys.aggregateStats();
    std::ostringstream os;
    sys.dumpState(os);
    r.dump = os.str();
    return r;
}

/** Occupancy-type cycles of one breakdown — the matrix's domain. */
std::uint64_t
occupancySum(const LatencyBlame &b)
{
    return b[BlameComponent::Queueing] +
           b[BlameComponent::RefreshStall] +
           b[BlameComponent::ScrubInterference] +
           b[BlameComponent::HammerMitigation];
}

TEST(BlameProperty, ConservationAndRowSumsAcrossSchedulers)
{
    Rng rng(20'260'808);
    const std::uint32_t threads = 4;
    for (SchedulerKind kind : allSchedulerKindsExtended()) {
        // Faults pin the event kernel to per-cycle stepping, so run
        // one fully loaded config and one that actually skips.
        for (bool with_faults : {true, false}) {
            const std::uint64_t seed = rng.below(100'000) + 1;
            SCOPED_TRACE(testing::Message()
                         << "scheduler=" << schedulerName(kind)
                         << " faults=" << with_faults
                         << " seed=" << seed);
            const DramConfig config = loadedConfig(with_faults);
            const std::vector<Item> items = drawTraffic(seed, threads);

            DriveResult cyc =
                drive(config, kind, items, /*event_skip=*/false);
            DriveResult evt =
                drive(config, kind, items, /*event_skip=*/true);

            // Kernel independence, byte-for-byte (the dump includes
            // the blame totals and interference rows).
            EXPECT_EQ(cyc.dump, evt.dump);

            // Aggregate conservation: launch-lockstep accumulation
            // reconciles exactly with the latency distribution.
            EXPECT_EQ(cyc.agg.blameTotals.sum(), cyc.agg.readLatency.sum());

            // Drained row-sum consistency, per thread.
            ASSERT_LE(cyc.agg.perThreadBlame.size(),
                      std::size_t{threads});
            for (std::size_t t = 0; t < cyc.agg.perThreadBlame.size();
                 ++t) {
                EXPECT_EQ(cyc.agg.interference.rowSum(
                              static_cast<ThreadId>(t)),
                          occupancySum(cyc.agg.perThreadBlame[t]))
                    << "thread " << t;
            }
            // Something must actually have been attributed, or the
            // property is vacuous.
            EXPECT_GT(cyc.agg.blameTotals.sum(), 0u);
        }
    }
}

TEST(BlameProperty, KernelModesAttributeIdentically)
{
    // SmtSystem-level replay of the same guarantee through the real
    // SystemConfig::kernel switch, everything enabled, full stats JSON
    // diffed (covers the v2 blame scalars/histograms and the matrix).
    Rng rng(77);
    const WorkloadMix &mix = mixByName("4-MEM");
    std::vector<AppProfile> apps;
    for (const std::string &name : mix.apps)
        apps.push_back(specProfile(name));

    for (SchedulerKind kind : allSchedulerKindsExtended()) {
        const std::uint64_t seed = rng.below(10'000) + 1;
        SCOPED_TRACE(testing::Message()
                     << "scheduler=" << schedulerName(kind)
                     << " seed=" << seed);
        SystemConfig config = SystemConfig::paperDefault(
            static_cast<std::uint32_t>(apps.size()));
        config.scheduler = kind;
        config.dram = loadedConfig(/*with_faults=*/true);
        config.observe.statsJsonPath = "/dev/null";

        RunResult results[2];
        std::string json[2];
        int i = 0;
        for (KernelMode mode :
             {KernelMode::PerCycle, KernelMode::EventDriven}) {
            config.kernel = mode;
            SmtSystem system(config, apps, seed);
            results[i] = system.run(1'000, 400);
            std::ostringstream os;
            system.statsRegistry()->writeJson(
                os, results[i].measuredCycles);
            json[i] = os.str();
            ++i;
        }
        EXPECT_EQ(json[0], json[1]);
        EXPECT_EQ(results[0].dram.blameTotals.sum(),
                  results[1].dram.blameTotals.sum());
        // Conservation of the aggregate against the latency stats the
        // figures already report.
        EXPECT_EQ(results[0].dram.blameTotals.sum(),
                  results[0].dram.readLatency.sum());
        EXPECT_GT(results[0].dram.blameTotals.sum(), 0u);
    }
}

} // namespace
} // namespace smtdram
