/**
 * @file
 * nextEventAt() contract tests for the DRAM side: the reported cycle
 * is exactly the first cycle at which tick() can change state —
 * never earlier (the event-driven kernel would do wasted real steps)
 * and never later (it would skip over work and diverge).  kCycleNever
 * means fully quiescent, and "must real-step" states pin the answer
 * to now + 1.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/address_mapping.hh"
#include "dram/dram_system.hh"
#include "dram/memory_controller.hh"

namespace smtdram
{
namespace
{

DramConfig
singleChannelDdr()
{
    return DramConfig::ddrSdram(1);
}

DramRequest
makeRead(const DramConfig &config, std::uint64_t id, Addr addr,
         Cycle arrival)
{
    AddressMapping mapping(config);
    DramRequest req;
    req.id = id;
    req.kind = RequestKind::Read;
    req.addr = addr;
    req.thread = 0;
    req.arrival = arrival;
    req.coord = mapping.map(addr);
    return req;
}

TEST(NextEvent, IdleControllerReportsNever)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_EQ(mc.nextEventAt(0), kCycleNever);
    EXPECT_EQ(mc.nextEventAt(1'000'000), kCycleNever);
}

TEST(NextEvent, PowerManagedIdleControllerStillReportsNever)
{
    // The low-power state machine is fully lazy: transitions are
    // back-computed from idle spans when the next request arrives, so
    // an idle power-managed controller needs no wakeups at all.
    DramConfig config = singleChannelDdr();
    config.withPowerManagement();
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_EQ(mc.nextEventAt(0), kCycleNever);
}

TEST(NextEvent, QueuedReadThenCompletionAreTheExactEventTimes)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    mc.enqueue(makeRead(config, 1, 0, 0));

    // An eligible queued request is actionable on the very next tick.
    ASSERT_EQ(mc.nextEventAt(0), 1u);

    // Launch it; the only remaining event is the in-flight
    // completion: row access (45) + column (45) + transfer (30) +
    // overhead (10) = 130 cycles after the cycle-1 issue.
    std::vector<DramRequest> done;
    mc.tick(1, done);
    const Cycle completion = 131;
    ASSERT_EQ(mc.nextEventAt(1), completion);

    // Every intermediate cycle is a provable no-op: nothing retires
    // and the reported event time never moves.
    for (Cycle c = 2; c < completion; ++c) {
        mc.tick(c, done);
        EXPECT_TRUE(done.empty()) << "early retire at cycle " << c;
        EXPECT_EQ(mc.nextEventAt(c), completion);
    }

    // ... and the event cycle itself is when state actually changes.
    mc.tick(completion, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].completion, completion);
    EXPECT_EQ(mc.nextEventAt(completion), kCycleNever);
}

TEST(NextEvent, DeferredEligibilityIsTheEventTime)
{
    // A request whose notBefore lies in the future (fault-injected
    // enqueue delay, retry backoff) is not a candidate until then —
    // and the controller reports exactly that cycle.
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    DramRequest req = makeRead(config, 1, 0, 0);
    req.notBefore = 40;
    mc.enqueue(req);
    EXPECT_EQ(mc.nextEventAt(0), 40u);
    EXPECT_EQ(mc.nextEventAt(38), 40u);
    // Once eligibility has passed, the request is actionable on the
    // next tick like any queued work.
    EXPECT_EQ(mc.nextEventAt(40), 41u);
}

TEST(NextEvent, RefreshDeadlinesAreTheExactEventTimes)
{
    DramConfig config = singleChannelDdr();
    config.withRefresh(/*interval=*/1'000, /*duration=*/60);
    MemoryController mc(config, SchedulerKind::Fcfs);

    // Four banks, first deadlines staggered through one interval.
    ASSERT_EQ(mc.nextEventAt(0), 250u);

    std::vector<DramRequest> done;
    for (Cycle c = 1; c < 250; ++c)
        mc.tick(c, done);
    EXPECT_EQ(mc.stats().refreshes, 0u);
    mc.tick(250, done);
    EXPECT_EQ(mc.stats().refreshes, 1u);

    // Bank 0 rearms one interval out; bank 1's first deadline is the
    // next event.
    EXPECT_EQ(mc.nextEventAt(250), 500u);
}

TEST(NextEvent, PendingMitigationForcesRealStepping)
{
    // Hammer one bank with alternating rows until the Graphene
    // tracker requests a preventive refresh; while that request
    // awaits materialization the controller must pin the event time
    // to now + 1 (the DRAM system drains it on the very next tick).
    DramConfig config = singleChannelDdr();
    config.withHammer(/*threshold=*/256, /*flip_probability=*/0.0);
    config.withHammerMitigation(/*tracker_capacity=*/4,
                                /*mitigation_threshold=*/16);
    MemoryController mc(config, SchedulerKind::Fcfs);
    const std::uint64_t row_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();

    std::vector<DramRequest> done;
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 200 && !mc.hasPendingMitigations();
         ++i) {
        mc.enqueue(makeRead(config, i + 1, (i % 2) * row_stride, now));
        while (mc.busy() && now < 1'000'000)
            mc.tick(++now, done);
    }
    ASSERT_TRUE(mc.hasPendingMitigations());
    EXPECT_EQ(mc.nextEventAt(now), now + 1);
}

TEST(NextEvent, DramSystemIdleReportsNever)
{
    DramSystem ds(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    EXPECT_EQ(ds.nextEventAt(0), kCycleNever);
}

TEST(NextEvent, ScrubDeadlinesAreStaggeredEventTimes)
{
    // Two channels, scrub interval 1000: first bursts at 500 and
    // 1000, so multi-channel systems never scrub in lockstep.
    DramConfig config = DramConfig::ddrSdram(2);
    config.withEcc(/*correctable_prob=*/0.0,
                   /*uncorrectable_prob=*/0.0,
                   /*scrub_interval=*/1'000);
    DramSystem ds(config, SchedulerKind::HitFirst);

    ASSERT_EQ(ds.nextEventAt(0), 500u);
    for (Cycle c = 1; c < 500; ++c)
        EXPECT_TRUE(ds.idleAt(c)) << "phantom work at cycle " << c;

    ds.tick(500);
    EXPECT_GT(ds.outstandingRequests(), 0u);
}

} // namespace
} // namespace smtdram
