/** @file Unit tests for the multi-channel DRAM system facade. */

#include <gtest/gtest.h>

#include <vector>

#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

DramSystem
makeSystem(std::uint32_t channels = 2)
{
    return DramSystem(DramConfig::ddrSdram(channels),
                      SchedulerKind::HitFirst);
}

/** Tick the system until idle or the deadline. */
void
drain(DramSystem &sys, Cycle deadline)
{
    for (Cycle now = 1; now <= deadline && sys.busy(); ++now)
        sys.tick(now);
}

TEST(DramSystem, RoutesByChannelBits)
{
    DramSystem sys = makeSystem(2);
    // Line 0 -> channel 0, line 1 -> channel 1.
    sys.enqueueRead(0, 0, {}, 0);
    sys.enqueueRead(64, 0, {}, 0);
    EXPECT_EQ(sys.channel(0).stats().reads +
                  sys.channel(1).stats().reads,
              0u);  // nothing issued yet
    drain(sys, 2000);
    EXPECT_EQ(sys.channel(0).stats().reads, 1u);
    EXPECT_EQ(sys.channel(1).stats().reads, 1u);
}

TEST(DramSystem, ReadCallbackFiresOncePerRead)
{
    DramSystem sys = makeSystem();
    std::vector<std::uint64_t> completed;
    sys.setReadCallback([&](const DramRequest &req) {
        completed.push_back(req.id);
    });
    const std::uint64_t id1 = sys.enqueueRead(0, 0, {}, 0);
    const std::uint64_t id2 = sys.enqueueRead(4096, 1, {}, 0);
    sys.enqueueWrite(1 << 20, 0);  // writes complete silently
    drain(sys, 5000);
    ASSERT_EQ(completed.size(), 2u);
    EXPECT_TRUE((completed[0] == id1 && completed[1] == id2) ||
                (completed[0] == id2 && completed[1] == id1));
}

TEST(DramSystem, PerThreadOutstandingTracksLifecycle)
{
    DramSystem sys = makeSystem();
    sys.enqueueRead(0, 3, {}, 0);
    sys.enqueueRead(64, 3, {}, 0);
    sys.enqueueRead(128, 5, {}, 0);
    ASSERT_GE(sys.outstandingPerThread().size(), 6u);
    EXPECT_EQ(sys.outstandingPerThread()[3], 2u);
    EXPECT_EQ(sys.outstandingPerThread()[5], 1u);
    EXPECT_EQ(sys.distinctThreadsOutstanding(), 2u);
    drain(sys, 5000);
    EXPECT_EQ(sys.outstandingPerThread()[3], 0u);
    EXPECT_EQ(sys.outstandingPerThread()[5], 0u);
    EXPECT_EQ(sys.distinctThreadsOutstanding(), 0u);
}

TEST(DramSystem, WritebacksHaveNoThread)
{
    DramSystem sys = makeSystem();
    sys.enqueueWrite(0, 0);
    EXPECT_EQ(sys.distinctThreadsOutstanding(), 0u);
    EXPECT_TRUE(sys.busy());
    EXPECT_EQ(sys.outstandingRequests(), 1u);
    drain(sys, 5000);
    EXPECT_FALSE(sys.busy());
}

TEST(DramSystem, OutstandingCountsQueuedAndInFlight)
{
    DramSystem sys = makeSystem();
    for (int i = 0; i < 6; ++i)
        sys.enqueueRead(static_cast<Addr>(i) * 64, 0, {}, 0);
    EXPECT_EQ(sys.outstandingRequests(), 6u);
    sys.tick(1);
    EXPECT_EQ(sys.outstandingRequests(), 6u);  // still in flight
    drain(sys, 5000);
    EXPECT_EQ(sys.outstandingRequests(), 0u);
}

TEST(DramSystem, AggregateStatsSumChannels)
{
    DramSystem sys = makeSystem(2);
    for (int i = 0; i < 8; ++i)
        sys.enqueueRead(static_cast<Addr>(i) * 64, 0, {}, 0);
    drain(sys, 5000);
    const ControllerStats agg = sys.aggregateStats();
    EXPECT_EQ(agg.reads, 8u);
    EXPECT_EQ(agg.reads,
              sys.channel(0).stats().reads + sys.channel(1).stats().reads);
    EXPECT_EQ(agg.rowHits + agg.rowEmpty + agg.rowConflicts, 8u);
    EXPECT_EQ(agg.readLatency.total(), 8u);
}

TEST(DramSystem, ResetStatsClearsCounters)
{
    DramSystem sys = makeSystem();
    sys.enqueueRead(0, 0, {}, 0);
    drain(sys, 5000);
    EXPECT_GT(sys.aggregateStats().reads, 0u);
    sys.resetStats();
    EXPECT_EQ(sys.aggregateStats().reads, 0u);
}

TEST(DramSystem, CanAcceptReflectsQueueCaps)
{
    DramConfig config = DramConfig::ddrSdram(1);
    config.readQueueCap = 1;
    DramSystem sys(config, SchedulerKind::Fcfs);
    EXPECT_TRUE(sys.canAccept(0, MemOp::Read));
    sys.enqueueRead(0, 0, {}, 0);
    EXPECT_FALSE(sys.canAccept(64, MemOp::Read));
    EXPECT_TRUE(sys.canAccept(64, MemOp::Write));
}

TEST(DramSystem, CompletionOrderIsByTime)
{
    DramSystem sys = makeSystem(2);
    std::vector<Cycle> completions;
    sys.setReadCallback([&](const DramRequest &req) {
        completions.push_back(req.completion);
    });
    for (int i = 0; i < 12; ++i)
        sys.enqueueRead(static_cast<Addr>(i) * 64, 0, {}, 0);
    drain(sys, 10000);
    ASSERT_EQ(completions.size(), 12u);
    for (size_t i = 1; i < completions.size(); ++i)
        EXPECT_LE(completions[i - 1], completions[i]);
}

TEST(DramSystem, IdleAtTracksOutstandingWork)
{
    DramSystem sys = makeSystem();
    EXPECT_TRUE(sys.idleAt(0));
    EXPECT_TRUE(sys.idleAt(10'000'000));

    sys.enqueueRead(0, 0, {}, 0);
    EXPECT_FALSE(sys.idleAt(0));
    drain(sys, 5000);
    EXPECT_TRUE(sys.idleAt(5000));
}

TEST(DramSystem, IdleTicksAreNoOpsAroundRealWork)
{
    // A long idle gap (fast-pathed ticks) must not perturb how the
    // next request is served.
    DramSystem gap = makeSystem();
    for (Cycle now = 1; now <= 100'000; ++now)
        gap.tick(now);
    Cycle gap_completion = 0;
    gap.setReadCallback([&](const DramRequest &req) {
        gap_completion = req.completion - req.arrival;
    });
    gap.enqueueRead(0, 0, {}, 100'001);
    for (Cycle now = 100'001; now <= 105'000 && gap.busy(); ++now)
        gap.tick(now);

    DramSystem fresh = makeSystem();
    Cycle fresh_completion = 0;
    fresh.setReadCallback([&](const DramRequest &req) {
        fresh_completion = req.completion - req.arrival;
    });
    fresh.enqueueRead(0, 0, {}, 1);
    for (Cycle now = 1; now <= 5000 && fresh.busy(); ++now)
        fresh.tick(now);

    EXPECT_GT(gap_completion, 0u);
    EXPECT_EQ(gap_completion, fresh_completion);
}

TEST(DramSystem, NeverIdleWhileScrubIsDue)
{
    DramConfig config = DramConfig::ddrSdram(1);
    config.ecc.enabled = true;
    config.ecc.scrubInterval = 500;
    config.ecc.scrubBurst = 1;
    DramSystem sys(config, SchedulerKind::HitFirst);
    // The staggered first burst lands at the end of one interval.
    EXPECT_FALSE(sys.idleAt(500));
    sys.tick(500);  // injects the burst
    EXPECT_FALSE(sys.idleAt(501));  // scrub read now queued
    drain(sys, 5000);
}

TEST(DramSystem, SnapshotTravelsWithRequest)
{
    DramSystem sys = makeSystem();
    ThreadSnapshot snap;
    snap.outstandingRequests = 7;
    snap.robOccupancy = 123;
    snap.iqOccupancy = 45;
    ThreadSnapshot seen;
    sys.setReadCallback(
        [&](const DramRequest &req) { seen = req.snap; });
    sys.enqueueRead(0, 0, snap, 0);
    drain(sys, 5000);
    EXPECT_EQ(seen.outstandingRequests, 7u);
    EXPECT_EQ(seen.robOccupancy, 123u);
    EXPECT_EQ(seen.iqOccupancy, 45u);
}

} // namespace
} // namespace smtdram
