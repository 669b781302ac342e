/**
 * @file
 * Randomized-configuration property: for ANY machine this simulator
 * can be configured into, the per-cycle and event-driven kernels
 * produce byte-identical results.  Each trial draws a thread count,
 * workload, scheduler, page mode, mapping, and a random subset of the
 * robustness subsystems (refresh, faults, ECC + scrub, power states,
 * hammer tracking + mitigation, conservation checker), runs both
 * kernels, and diffs the figure metrics, the stats-registry JSON, and
 * dumpState() byte-for-byte.  The drawn seed is logged on failure so
 * any counterexample replays exactly.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/smt_system.hh"

namespace smtdram
{
namespace
{

struct Snapshot {
    RunResult r;
    std::string statsJson;
    std::string dump;
};

Snapshot
runKernel(SystemConfig config, const std::vector<AppProfile> &apps,
          std::uint64_t seed, KernelMode mode, std::uint64_t insts,
          std::uint64_t warmup)
{
    config.kernel = mode;
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
    return s;
}

/** Draw one whole SystemConfig from @p rng. */
SystemConfig
drawConfig(Rng &rng, std::uint32_t num_threads)
{
    SystemConfig config = SystemConfig::paperDefault(num_threads);
    static const SchedulerKind kSchedulers[] = {
        SchedulerKind::Fcfs,         SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,     SchedulerKind::RequestBased,
        SchedulerKind::RobBased,     SchedulerKind::IqBased,
        SchedulerKind::CriticalityBased,
    };
    config.scheduler = kSchedulers[rng.below(7)];
    config.dram.pageMode =
        rng.chance(0.5) ? PageMode::Open : PageMode::Close;
    config.dram.mapping = rng.chance(0.5) ? MappingScheme::XorPermute
                                          : MappingScheme::PageInterleave;
    if (rng.chance(0.5))
        config.dram.withRefresh();
    if (rng.chance(0.3)) {
        config.dram.faults.enabled = true;
        config.dram.faults.seed = rng.below(1000) + 1;
        config.dram.faults.busStallProbability = 0.001;
        config.dram.faults.busStallCycles = 8;
        config.dram.faults.readErrorProbability = 0.002;
    }
    if (rng.chance(0.5))
        config.dram.withEcc(1e-4, 1e-6, 4'096);
    if (rng.chance(0.5))
        config.dram.withPowerManagement();
    if (rng.chance(0.5)) {
        config.dram.withHammer(/*threshold=*/512,
                               /*flip_probability=*/0.002);
        if (rng.chance(0.7))
            config.dram.withHammerMitigation(16, 128);
    }
    config.dram.checkerEnabled = rng.chance(0.5);
    if (rng.chance(0.3))
        config.observe.epoch = 256 + rng.below(2'048);
    return config;
}

/** @p n apps drawn from @p rng, their names appended to @p names. */
std::vector<AppProfile>
drawApps(Rng &rng, std::uint32_t n, std::string &names)
{
    const std::vector<AppProfile> &profiles = spec2000Profiles();
    std::vector<AppProfile> apps;
    for (std::uint32_t t = 0; t < n; ++t) {
        const AppProfile &app = profiles[rng.below(profiles.size())];
        apps.push_back(app);
        names += app.name + " ";
    }
    return apps;
}

/** Run both kernels and diff the metrics, the stats JSON and
 *  dumpState(). */
void
expectKernelsAgree(const SystemConfig &config,
                   const std::vector<AppProfile> &apps, std::uint64_t seed)
{
    const Snapshot cyc =
        runKernel(config, apps, seed, KernelMode::PerCycle, 1'200, 400);
    const Snapshot evt =
        runKernel(config, apps, seed, KernelMode::EventDriven, 1'200, 400);

    EXPECT_EQ(cyc.r.measuredCycles, evt.r.measuredCycles);
    EXPECT_EQ(cyc.r.committed, evt.r.committed);
    EXPECT_EQ(cyc.r.ipc, evt.r.ipc);
    EXPECT_EQ(cyc.r.perThreadReads, evt.r.perThreadReads);
    EXPECT_EQ(cyc.r.outstandingHist.total(), evt.r.outstandingHist.total());
    EXPECT_EQ(cyc.r.threadsHist.total(), evt.r.threadsHist.total());
    EXPECT_EQ(cyc.r.power.totalEnergy, evt.r.power.totalEnergy);
    EXPECT_EQ(cyc.r.numa, evt.r.numa);
    EXPECT_EQ(cyc.statsJson, evt.statsJson);
    EXPECT_EQ(cyc.dump, evt.dump);
}

TEST(KernelEquivalenceProperty, RandomConfigsAreByteIdentical)
{
    Rng rng(20'260'808);
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint32_t num_threads =
            1u << rng.below(3);  // 1, 2 or 4
        const std::uint64_t workload_seed = rng.below(10'000) + 1;
        SystemConfig config = drawConfig(rng, num_threads);
        std::string app_names;
        const auto apps = drawApps(rng, num_threads, app_names);
        SCOPED_TRACE(testing::Message()
                     << "trial=" << trial << " threads=" << num_threads
                     << " seed=" << workload_seed << " apps=["
                     << app_names << "] scheduler="
                     << schedulerName(config.scheduler));
        expectKernelsAgree(config, apps, workload_seed);
    }
}

/**
 * The same property on multi-socket machines: each trial takes
 * drawConfig()'s DRAM features on 2-3 sockets x 1-2 cores, with a
 * drawn home policy, enough SMT ways for the threads and a placement
 * (migration on a short epoch); trials cycle through the placements
 * so each runs twice.  Its own seed leaves the single-socket trials'
 * draws untouched.
 */
TEST(KernelEquivalenceProperty, RandomMultiSocketMachinesAreByteIdentical)
{
    Rng rng(20'261'020);
    static const PlacementPolicy kPlacements[] = {
        PlacementPolicy::Packed, PlacementPolicy::RoundRobin,
        PlacementPolicy::MemoryAware, PlacementPolicy::Migrate};
    static const HomePolicy kHomes[] = {
        HomePolicy::Local, HomePolicy::Loader, HomePolicy::Interleave};
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint32_t num_threads = 2 + rng.below(3);  // 2..4
        const std::uint64_t workload_seed = rng.below(10'000) + 1;
        SystemConfig config = drawConfig(rng, num_threads);
        TopologyConfig &topo = config.topology;
        topo.enabled = true;
        topo.sockets = 2 + rng.below(2);
        topo.coresPerSocket = 1 + rng.below(2);
        topo.home = kHomes[rng.below(3)];
        topo.placement = kPlacements[trial % 4];
        if (topo.placement == PlacementPolicy::Migrate) {
            topo.migrationEpoch = 300 + rng.below(1'200);
            topo.migrationCost = 50 + rng.below(200);
        }
        const std::uint32_t cores = topo.totalCores();
        topo.smtWays = (num_threads + cores - 1) / cores + rng.below(2);
        std::string app_names;
        const auto apps = drawApps(rng, num_threads, app_names);
        SCOPED_TRACE(testing::Message()
                     << "trial=" << trial << " threads=" << num_threads
                     << " seed=" << workload_seed << " apps=["
                     << app_names << "] scheduler="
                     << schedulerName(config.scheduler) << " topology="
                     << topo.sockets << "x" << topo.coresPerSocket
                     << " ways=" << topo.smtWays << " home="
                     << homePolicyName(topo.home) << " placement="
                     << placementPolicyName(topo.placement));
        expectKernelsAgree(config, apps, workload_seed);
    }
}

} // namespace
} // namespace smtdram
