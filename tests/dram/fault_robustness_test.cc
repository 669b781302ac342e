/**
 * @file
 * Tests of the resilience layer: fault injection (bus stalls, read
 * retries, enqueue delays), per-bank auto-refresh timing, the shadow
 * conservation checker, and the forward-progress watchdog.  The death
 * tests prove the failure modes fire with diagnostics instead of
 * hanging: a controller whose bus is stalled forever must trip the
 * checker's age bound and dump state within the configured window.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/random.hh"
#include "common/watchdog.hh"
#include "dram/address_mapping.hh"
#include "dram/checker.hh"
#include "dram/dram_system.hh"
#include "dram/fault_injector.hh"
#include "dram/memory_controller.hh"

namespace smtdram
{
namespace
{

DramConfig
faultyConfig()
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.faults.enabled = true;
    c.faults.seed = 7;
    return c;
}

/** Drive @p mc until idle, appending completions to @p done. */
void
drain(MemoryController &mc, Cycle &now, std::vector<DramRequest> &done,
      Cycle limit = 5'000'000)
{
    while (mc.busy()) {
        ++now;
        ASSERT_LT(now, limit) << "controller did not drain";
        mc.tick(now, done);
    }
}

// ---- Fault injector -------------------------------------------------

TEST(FaultInjector, InactiveWhenDisabled)
{
    FaultConfig f;
    f.busStallProbability = 1.0;
    f.busStallCycles = 100;
    f.readErrorProbability = 1.0;
    // enabled is false: every mechanism must stay silent.
    FaultInjector inj(f, EccConfig{}, 0);
    EXPECT_FALSE(inj.active());
    EXPECT_EQ(inj.sampleBusStall(1), 0u);
    EXPECT_FALSE(inj.sampleReadError());
    EXPECT_EQ(inj.sampleEnqueueDelay(), 0u);
    EXPECT_EQ(inj.stats().busStalls, 0u);
}

TEST(FaultInjector, DeterministicPerSeedAndChannel)
{
    FaultConfig f;
    f.enabled = true;
    f.seed = 99;
    f.busStallProbability = 0.25;
    f.busStallCycles = 10;
    auto trace = [&f](std::uint32_t channel) {
        FaultInjector inj(f, EccConfig{}, channel);
        std::vector<Cycle> stalls;
        for (Cycle now = 0; now < 2000; ++now) {
            if (inj.sampleBusStall(now) > 0)
                stalls.push_back(now);
        }
        return stalls;
    };
    EXPECT_EQ(trace(0), trace(0));
    EXPECT_NE(trace(0), trace(1));
}

TEST(FaultInjector, StallWindowsNeverOverlap)
{
    FaultConfig f;
    f.enabled = true;
    f.busStallProbability = 1.0;
    f.busStallCycles = 50;
    FaultInjector inj(f, EccConfig{}, 0);
    Cycle last_end = 0;
    for (Cycle now = 0; now < 1000; ++now) {
        const Cycle stall = inj.sampleBusStall(now);
        if (stall > 0) {
            EXPECT_GE(now, last_end);
            last_end = now + stall;
        }
    }
    // p=1.0 must open back-to-back windows: 1000/50 = 20.
    EXPECT_EQ(inj.stats().busStalls, 20u);
    EXPECT_EQ(inj.stats().busStallCycles, 1000u);
}

// ---- Read retry with backoff ---------------------------------------

TEST(FaultRetry, CertainErrorsExhaustBoundedRetries)
{
    DramConfig c = faultyConfig();
    c.faults.readErrorProbability = 1.0;  // every read comes back bad
    c.faults.maxRetries = 3;
    c.faults.retryBackoff = 16;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.arrival = 0;
    req.coord = mapping.map(req.addr);
    mc.enqueue(req);

    std::vector<DramRequest> done;
    Cycle now = 0;
    drain(mc, now, done);

    // Delivered exactly once, after the full retry budget.
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].id, 1u);
    EXPECT_EQ(done[0].retries, 3u);
    EXPECT_EQ(mc.stats().readRetries, 3u);
    EXPECT_EQ(mc.stats().retriesExhausted, 1u);
    // Each retry is a full DRAM transaction.
    EXPECT_EQ(mc.stats().reads, 4u);
    EXPECT_EQ(mc.faultStats().readErrors, 4u);
}

TEST(FaultRetry, BackoffDelaysRelaunch)
{
    DramConfig c = faultyConfig();
    c.faults.readErrorProbability = 1.0;
    c.faults.maxRetries = 1;
    c.faults.retryBackoff = 500;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.arrival = 0;
    req.coord = mapping.map(req.addr);
    mc.enqueue(req);

    std::vector<DramRequest> done;
    Cycle now = 0;
    drain(mc, now, done);
    ASSERT_EQ(done.size(), 1u);
    // First attempt completes around CAS+row+transfer+overhead
    // (~130); the retry may not even launch before the backoff.
    const Cycle first_completion =
        c.timing.rowAccess + c.timing.columnAccess +
        c.lineTransferCycles() + c.timing.controllerOverhead;
    EXPECT_GE(done[0].issueTime, first_completion + 500);
}

// ---- Enqueue delay --------------------------------------------------

TEST(FaultEnqueueDelay, DelaysIssueNotQueueSpace)
{
    DramConfig c = faultyConfig();
    c.faults.enqueueDelayProbability = 1.0;
    c.faults.enqueueDelayMax = 200;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.arrival = 0;
    req.coord = mapping.map(req.addr);
    mc.enqueue(req);
    EXPECT_EQ(mc.queuedReads(), 1u);  // holds queue space immediately

    std::vector<DramRequest> done;
    Cycle now = 0;
    drain(mc, now, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0].notBefore, 0u);
    EXPECT_GE(done[0].issueTime, done[0].notBefore);
    EXPECT_EQ(mc.faultStats().enqueueDelays, 1u);
}

// ---- Refresh modeling ----------------------------------------------

TEST(Refresh, IssuesOnePerBankPerInterval)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(1000, 40);
    MemoryController mc(c, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    for (Cycle now = 1; now <= 10'000; ++now)
        mc.tick(now, done);

    // 4 banks x ~10 intervals each; staggering costs at most one
    // refresh per bank at the margin.
    EXPECT_GE(mc.stats().refreshes, 4u * 9u);
    EXPECT_LE(mc.stats().refreshes, 4u * 10u);
    EXPECT_EQ(mc.stats().refreshBlockedCycles,
              mc.stats().refreshes * 40u);
}

TEST(Refresh, BlocksTheBankWhileRefreshing)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(2000, 300);
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    // The single bank's first refresh lands at interval/4 (staggered
    // deadline of bank 0 of 4) — tick until just past it, then issue.
    std::vector<DramRequest> done;
    Cycle now = 0;
    for (; now <= 500; ++now)
        mc.tick(now, done);
    ASSERT_GE(mc.stats().refreshes, 1u);

    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.arrival = now;
    req.coord = mapping.map(req.addr);
    // Bank 0 refreshed at cycle 500 (deadline 2000/4) and is blocked
    // until 800; the read cannot issue before that.
    mc.enqueue(req);
    drain(mc, now, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GE(done[0].issueTime, 800u);
}

TEST(Refresh, ClosesTheOpenRow)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(3000, 100);
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::HitFirst);

    // Open a row in bank 0, wait across its refresh deadline, then
    // access the same row again: the refresh must have precharged it.
    std::vector<DramRequest> done;
    Cycle now = 0;
    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.arrival = 0;
    req.coord = mapping.map(req.addr);
    mc.enqueue(req);
    drain(mc, now, done);
    ASSERT_EQ(mc.stats().rowEmpty, 1u);

    while (now < 4000) {
        ++now;
        mc.tick(now, done);
    }
    ASSERT_GE(mc.stats().refreshes, 1u);

    req.id = 2;
    req.arrival = now;
    mc.enqueue(req);
    drain(mc, now, done);
    EXPECT_EQ(mc.stats().rowHits, 0u);
    EXPECT_EQ(mc.stats().rowEmpty, 2u);
}

// ---- Conservation checker ------------------------------------------

TEST(ConservationChecker, TracksNormalFlow)
{
    ConservationChecker checker(1000);
    DramRequest req;
    req.id = 42;
    checker.onEnqueue(req, 10);
    EXPECT_EQ(checker.outstanding(), 1u);
    checker.checkAges(500);
    checker.onComplete(req, 600);
    EXPECT_EQ(checker.outstanding(), 0u);
    checker.verifyDrained();
    EXPECT_EQ(checker.enqueued(), 1u);
    EXPECT_EQ(checker.completed(), 1u);
}

TEST(ConservationCheckerDeathTest, DoubleCompletionPanics)
{
    ConservationChecker checker;
    DramRequest req;
    req.id = 1;
    checker.onEnqueue(req, 0);
    checker.onComplete(req, 10);
    EXPECT_DEATH(checker.onComplete(req, 20),
                 "without a matching enqueue");
}

TEST(ConservationCheckerDeathTest, DoubleEnqueuePanics)
{
    ConservationChecker checker;
    DramRequest req;
    req.id = 1;
    checker.onEnqueue(req, 0);
    EXPECT_DEATH(checker.onEnqueue(req, 5), "enqueued twice");
}

TEST(ConservationCheckerDeathTest, UndrainedRequestPanics)
{
    ConservationChecker checker;
    DramRequest req;
    req.id = 9;
    checker.onEnqueue(req, 3);
    EXPECT_DEATH(checker.verifyDrained(), "never completed");
}

TEST(ConservationCheckerDeathTest, DumpRunsBeforePanic)
{
    ConservationChecker checker(
        100, [] { std::fprintf(stderr, "DUMP-MARKER\n"); });
    DramRequest req;
    req.id = 1;
    checker.onEnqueue(req, 0);
    EXPECT_DEATH(checker.checkAges(1000), "DUMP-MARKER");
}

// ---- Watchdog -------------------------------------------------------

TEST(Watchdog, KickResetsTheBound)
{
    Watchdog dog(100, "test progress");
    dog.kick(0);
    EXPECT_FALSE(dog.expired(100));
    EXPECT_TRUE(dog.expired(101));
    dog.kick(101);
    EXPECT_FALSE(dog.expired(201));
}

TEST(Watchdog, ZeroBoundDisables)
{
    Watchdog dog(0, "disabled");
    EXPECT_FALSE(dog.expired(1'000'000'000));
}

TEST(WatchdogDeathTest, FiresWithDump)
{
    Watchdog dog(50, "unit progress");
    dog.kick(0);
    EXPECT_DEATH(
        dog.checkOrDie(
            51, [] { std::fprintf(stderr, "WATCHDOG-DUMP\n"); }),
        "WATCHDOG-DUMP");
}

// ---- The acceptance scenario: a wedged controller -------------------

/** Tick a checker-guarded DramSystem whose bus is stalled forever. */
void
runWedgedSystem()
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.checkerEnabled = true;
    c.checkerMaxAge = 50'000;  // fire well inside the tick budget
    c.faults.enabled = true;
    c.faults.busStallProbability = 1.0;
    c.faults.busStallCycles = 1'000'000'000;  // never recovers
    DramSystem dram(c, SchedulerKind::HitFirst);

    for (int i = 0; i < 8; ++i)
        dram.enqueueRead(static_cast<Addr>(i) * 4096, 0, {}, 1);
    for (Cycle now = 1; now < 200'000; ++now)
        dram.tick(now);
}

TEST(WedgedControllerDeathTest, CheckerFiresInsteadOfHanging)
{
    // The stalled bus blocks every launch; queued requests age past
    // the bound and the checker aborts the run...
    EXPECT_DEATH(runWedgedSystem(), "past the age bound");
}

TEST(WedgedControllerDeathTest, FailureCarriesAStateDump)
{
    // ...and the abort is preceded by the full DRAM state dump.
    EXPECT_DEATH(runWedgedSystem(), "DramSystem state dump");
}

// ---- System-level conservation under fire --------------------------

TEST(FaultSoak, RandomTrafficConservedWithFaultsAndRefresh)
{
    DramConfig c = DramConfig::ddrSdram(2).withRefresh(2000, 60);
    c.checkerEnabled = true;
    c.checkerMaxAge = 1'000'000;
    c.faults.enabled = true;
    c.faults.seed = 5;
    c.faults.busStallProbability = 0.001;
    c.faults.busStallCycles = 300;
    c.faults.readErrorProbability = 0.05;
    c.faults.enqueueDelayProbability = 0.1;
    c.faults.enqueueDelayMax = 100;
    DramSystem dram(c, SchedulerKind::RequestBased);

    Rng rng(17);
    std::set<std::uint64_t> pending;
    dram.setReadCallback([&pending](const DramRequest &req) {
        ASSERT_TRUE(pending.erase(req.id) == 1)
            << "read " << req.id << " delivered twice or never queued";
    });

    Cycle now = 0;
    int injected = 0;
    constexpr int kRequests = 2000;
    while (injected < kRequests || dram.busy()) {
        ++now;
        ASSERT_LT(now, 10'000'000u) << "soak did not drain";
        if (injected < kRequests && rng.chance(0.4)) {
            const Addr addr = rng.below(1ULL << 28) & ~Addr{63};
            if (rng.chance(0.8)) {
                if (dram.canAccept(addr, MemOp::Read)) {
                    ThreadSnapshot snap;
                    snap.outstandingRequests =
                        static_cast<std::uint32_t>(rng.below(8));
                    pending.insert(dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(4)),
                        snap, now));
                    ++injected;
                }
            } else if (dram.canAccept(addr, MemOp::Write)) {
                dram.enqueueWrite(addr, now);
                ++injected;
            }
        }
        dram.tick(now);
    }

    EXPECT_TRUE(pending.empty());
    ASSERT_NE(dram.checker(), nullptr);
    dram.checker()->verifyDrained();
    EXPECT_EQ(dram.checker()->enqueued(), dram.checker()->completed());
    // The fault machinery demonstrably fired.
    const FaultStats f = dram.aggregateFaultStats();
    EXPECT_GT(f.readErrors + f.busStalls + f.enqueueDelays, 0u);
    EXPECT_GT(dram.aggregateStats().refreshes, 0u);
}

} // namespace
} // namespace smtdram
