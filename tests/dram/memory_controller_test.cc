/** @file Unit tests for the per-channel memory controller timing. */

#include <gtest/gtest.h>

#include "dram/address_mapping.hh"
#include "dram/memory_controller.hh"

namespace smtdram
{
namespace
{

DramConfig
singleChannelDdr(PageMode mode = PageMode::Open)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.pageMode = mode;
    return c;
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

/** Tick until all requests complete or the deadline passes. */
std::vector<DramRequest>
drain(MemoryController &mc, Cycle from, Cycle deadline)
{
    std::vector<DramRequest> done;
    for (Cycle now = from; now <= deadline && mc.busy(); ++now)
        mc.tick(now, done);
    return done;
}

TEST(MemoryController, ColdReadTiming)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    mc.enqueue(makeRead(config, 1, 0, 0));

    std::vector<DramRequest> done = drain(mc, 0, 1000);
    ASSERT_EQ(done.size(), 1u);
    // Idle bank: row access (45) + column (45) + transfer (30)
    // + controller overhead (10) = 130, issued at cycle 0.
    EXPECT_EQ(done[0].completion, 130u);
    EXPECT_FALSE(done[0].rowHit);
    EXPECT_TRUE(done[0].bankWasIdle);
    EXPECT_EQ(mc.stats().rowEmpty, 1u);
}

TEST(MemoryController, RowHitIsCheaper)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::HitFirst);
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> first = drain(mc, 0, 1000);
    ASSERT_EQ(first.size(), 1u);

    // Second access to the same row: column (45) + transfer (30)
    // + overhead (10) = 85 from issue.
    const Cycle start = first[0].completion + 1;
    mc.enqueue(makeRead(config, 2, 64, start));
    std::vector<DramRequest> second = drain(mc, start, 2000);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].rowHit);
    EXPECT_EQ(second[0].completion - second[0].issueTime, 85u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
}

TEST(MemoryController, RowConflictPaysPrecharge)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::HitFirst);
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> first = drain(mc, 0, 1000);

    // Same bank, different row: precharge + row + column + transfer.
    const std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();
    const Cycle start = first[0].completion + 1;
    mc.enqueue(makeRead(config, 2, conflict_stride, start));
    std::vector<DramRequest> second = drain(mc, start, 2000);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].rowHit);
    EXPECT_FALSE(second[0].bankWasIdle);
    EXPECT_EQ(second[0].completion - second[0].issueTime,
              45u + 45u + 45u + 30u + 10u);
    EXPECT_EQ(mc.stats().rowConflicts, 1u);
}

TEST(MemoryController, ClosePageModeAutoPrecharges)
{
    const DramConfig config = singleChannelDdr(PageMode::Close);
    MemoryController mc(config, SchedulerKind::HitFirst);
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> first = drain(mc, 0, 1000);
    ASSERT_EQ(first.size(), 1u);

    // Close mode: the second same-row access is NOT a hit, but it
    // also pays no precharge (the bank precharged itself).
    const Cycle start = first[0].completion + 100;
    mc.enqueue(makeRead(config, 2, 64, start));
    std::vector<DramRequest> second = drain(mc, start, 2000);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].rowHit);
    EXPECT_TRUE(second[0].bankWasIdle);
}

TEST(MemoryController, DifferentBanksOverlap)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    const std::uint64_t row_bytes = config.effectiveRowBytes();
    // Two cold reads to different banks, enqueued together.
    mc.enqueue(makeRead(config, 1, 0 * row_bytes, 0));
    mc.enqueue(makeRead(config, 2, 1 * row_bytes, 0));

    std::vector<DramRequest> done = drain(mc, 0, 2000);
    ASSERT_EQ(done.size(), 2u);
    // Serial execution would finish the pair 120 cycles after the
    // first; overlapped banks serialize only on the 30-cycle burst.
    const Cycle gap = done[1].completion - done[0].completion;
    EXPECT_LE(gap, 35u);
}

TEST(MemoryController, SameBankSerializes)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    const std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();
    mc.enqueue(makeRead(config, 1, 0, 0));
    mc.enqueue(makeRead(config, 2, conflict_stride, 0));

    std::vector<DramRequest> done = drain(mc, 0, 2000);
    ASSERT_EQ(done.size(), 2u);
    const Cycle gap = done[1].completion - done[0].completion;
    // The second transaction starts only after the bank frees and
    // pays the full conflict latency.
    EXPECT_GE(gap, 45u + 45u + 45u);
}

TEST(MemoryController, HitFirstReordersAroundConflict)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::HitFirst);

    // Open row 0 of bank 0.
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> warm = drain(mc, 0, 1000);
    const Cycle start = warm[0].completion + 1;

    // A conflicting access arrives first, a row hit second; hit-first
    // serves the hit before the conflict.
    const std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();
    mc.enqueue(makeRead(config, 2, conflict_stride, start));
    mc.enqueue(makeRead(config, 3, 128, start + 1));

    std::vector<DramRequest> done = drain(mc, start, 3000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, 3u);
    EXPECT_TRUE(done[0].rowHit);
    EXPECT_EQ(done[1].id, 2u);
}

TEST(MemoryController, FcfsDoesNotReorder)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> warm = drain(mc, 0, 1000);
    const Cycle start = warm[0].completion + 1;

    const std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();
    mc.enqueue(makeRead(config, 2, conflict_stride, start));
    mc.enqueue(makeRead(config, 3, 128, start + 1));

    std::vector<DramRequest> done = drain(mc, start, 3000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, 2u);
}

TEST(MemoryController, WritesWaitForIdleOrPressure)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::HitFirst);
    AddressMapping mapping(config);

    DramRequest wr;
    wr.id = 1;
    wr.kind = RequestKind::Write;
    wr.addr = 4096;
    wr.arrival = 0;
    wr.coord = mapping.map(wr.addr);
    mc.enqueue(wr);
    mc.enqueue(makeRead(config, 2, 0, 0));

    std::vector<DramRequest> done = drain(mc, 0, 3000);
    ASSERT_EQ(done.size(), 2u);
    // The read is served first even though the write arrived first.
    EXPECT_EQ(done[0].id, 2u);
    EXPECT_EQ(mc.stats().writes, 1u);
}

TEST(MemoryController, WriteDrainTriggersAtHighWatermark)
{
    DramConfig config = singleChannelDdr();
    config.writeHighWatermark = 4;
    config.writeLowWatermark = 1;
    MemoryController mc(config, SchedulerKind::HitFirst);
    AddressMapping mapping(config);

    // Saturate with reads, then pile writes past the watermark.
    for (std::uint64_t i = 0; i < 8; ++i)
        mc.enqueue(makeRead(config, i + 1, i * 64, 0));
    for (std::uint64_t i = 0; i < 5; ++i) {
        DramRequest wr;
        wr.id = 100 + i;
        wr.kind = RequestKind::Write;
        wr.addr = (1 << 20) + i * 64;
        wr.arrival = 0;
        wr.coord = mapping.map(wr.addr);
        mc.enqueue(wr);
    }
    std::vector<DramRequest> done = drain(mc, 0, 10000);
    EXPECT_EQ(done.size(), 13u);
    EXPECT_EQ(mc.stats().writes, 5u);
}

TEST(MemoryController, QueueCapacities)
{
    DramConfig config = singleChannelDdr();
    config.readQueueCap = 2;
    config.writeQueueCap = 1;
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_TRUE(mc.canAcceptRead());
    mc.enqueue(makeRead(config, 1, 0, 0));
    mc.enqueue(makeRead(config, 2, 64, 0));
    EXPECT_FALSE(mc.canAcceptRead());
    EXPECT_TRUE(mc.canAcceptWrite());
}

TEST(MemoryController, LatencyStatsTrackQueueing)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    const std::uint64_t conflict_stride =
        static_cast<std::uint64_t>(config.effectiveRowBytes()) *
        config.banksPerChannel();
    mc.enqueue(makeRead(config, 1, 0, 0));
    mc.enqueue(makeRead(config, 2, conflict_stride, 0));
    drain(mc, 0, 3000);
    EXPECT_EQ(mc.stats().reads, 2u);
    // The second read queued behind the first: mean queueing > 0.
    EXPECT_GT(mc.stats().readQueueing.max(), 0u);
    EXPECT_GT(mc.stats().readLatency.min(), 100u);
}

TEST(MemoryController, BlameDecompositionColdRead)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    mc.enqueue(makeRead(config, 1, 0, 0));

    std::vector<DramRequest> done = drain(mc, 0, 1000);
    ASSERT_EQ(done.size(), 1u);
    const LatencyBlame &blame = done[0].blame;
    // Idle bank, idle bus, launched the cycle it arrived: the whole
    // 130-cycle lifetime is the row activate (bank_conflict, 45) plus
    // the unavoidable column + transfer + overhead (intrinsic, 85).
    EXPECT_EQ(blame[BlameComponent::BankConflict], 45u);
    EXPECT_EQ(blame[BlameComponent::Intrinsic], 85u);
    EXPECT_EQ(blame.sum(), done[0].completion - done[0].arrival);
    EXPECT_EQ(blame[BlameComponent::Queueing], 0u);
    EXPECT_EQ(blame[BlameComponent::SchedulerDeferral], 0u);
}

TEST(MemoryController, BlameQueueingFeedsInterferenceMatrix)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    // Two threads race for the same bank; thread 1 arrives together
    // with thread 0 and must wait out its bank occupancy.
    DramRequest first = makeRead(config, 1, 0, 0);
    DramRequest second = makeRead(config, 2, 64, 0);
    second.thread = 1;
    mc.enqueue(first);
    mc.enqueue(second);

    std::vector<DramRequest> done = drain(mc, 0, 3000);
    ASSERT_EQ(done.size(), 2u);
    const DramRequest &waited = done[1];
    ASSERT_EQ(waited.thread, ThreadId{1});
    EXPECT_EQ(waited.blame.sum(), waited.completion - waited.arrival);
    EXPECT_GT(waited.blame[BlameComponent::Queueing], 0u);
    // Every queueing cycle of thread 1 is attributable to thread 0,
    // and nothing else ever blocked either thread.
    EXPECT_EQ(mc.stats().interference.at(1, 0),
              waited.blame[BlameComponent::Queueing]);
    EXPECT_EQ(mc.stats().interference.rowSum(1),
              waited.blame[BlameComponent::Queueing]);
    EXPECT_EQ(mc.stats().interference.rowSum(0), 0u);
    // Aggregate reconciliation at the controller level.
    EXPECT_EQ(mc.stats().blameTotals.sum(), mc.stats().readLatency.sum());
}

TEST(MemoryController, NextEventAtIdleIsNever)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_EQ(mc.nextEventAt(0), kCycleNever);
    EXPECT_FALSE(mc.busy());
}

TEST(MemoryController, GangedChannelTransfersFaster)
{
    // A 2-ganged logical channel moves a line in half the bus time:
    // the row-hit service gap between back-to-back same-row reads
    // shrinks from 30 to 15 cycles of burst.
    auto hit_latency = [](std::uint32_t gang) {
        DramConfig config = DramConfig::ddrSdram(gang, gang);
        MemoryController mc(config, SchedulerKind::HitFirst);
        mc.enqueue(makeRead(config, 1, 0, 0));
        std::vector<DramRequest> first = drain(mc, 0, 1000);
        const Cycle start = first[0].completion + 1;
        mc.enqueue(makeRead(config, 2, 64 * gang, start));
        std::vector<DramRequest> second = drain(mc, start, 2000);
        EXPECT_TRUE(second[0].rowHit);
        return second[0].completion - second[0].issueTime;
    };
    // CAS(45) + transfer + overhead(10).
    EXPECT_EQ(hit_latency(1), 45u + 30u + 10u);
    EXPECT_EQ(hit_latency(2), 45u + 15u + 10u);
    EXPECT_EQ(hit_latency(4), 45u + 8u + 10u);
}

TEST(MemoryController, RdramColdReadTiming)
{
    // RDRAM: same core latencies but a 120-cycle narrow-bus burst.
    DramConfig config = DramConfig::directRambus(1, 1);
    MemoryController mc(config, SchedulerKind::HitFirst);
    mc.enqueue(makeRead(config, 1, 0, 0));
    std::vector<DramRequest> done = drain(mc, 0, 2000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].completion, 45u + 45u + 120u + 10u);
}

TEST(MemoryController, RowMissRateDefinition)
{
    ControllerStats s;
    s.rowHits = 6;
    s.rowEmpty = 1;
    s.rowConflicts = 3;
    EXPECT_NEAR(s.rowMissRate(), 0.4, 1e-12);
}

TEST(MemoryController, WriteDrainLatchSurvivesBookedBusWindow)
{
    // Pins the invariant behind evaluating the write-drain hysteresis
    // before the bus-lead early-out in tryIssue(): writes that cross
    // the high watermark while the bus is booked far ahead must still
    // be drained once the bus frees.  Writes only leave the queue by
    // issuing, which cannot happen during the early-out, so the latch
    // state at the first post-window evaluation is the same whether
    // the watermark check runs before or after the early-out.
    DramConfig config = singleChannelDdr();
    config.writeHighWatermark = 3;
    config.writeLowWatermark = 0;
    MemoryController mc(config, SchedulerKind::HitFirst);
    AddressMapping mapping(config);

    // Same-row reads book the data bus back to back.
    for (std::uint64_t i = 0; i < 4; ++i)
        mc.enqueue(makeRead(config, i + 1, i * 64, 0));
    for (Cycle now = 0; now < 50; ++now) {
        std::vector<DramRequest> done;
        mc.tick(now, done);
    }
    // Mid-window: the write queue crosses the high watermark while
    // the early-out is active.
    for (std::uint64_t i = 0; i < 3; ++i) {
        DramRequest wr;
        wr.id = 100 + i;
        wr.kind = RequestKind::Write;
        wr.addr = (1 << 20) + i * 64;
        wr.arrival = 50;
        wr.coord = mapping.map(wr.addr);
        mc.enqueue(wr);
    }
    std::vector<DramRequest> done = drain(mc, 50, 10000);
    EXPECT_EQ(mc.stats().writes, 3u);
    EXPECT_EQ(mc.stats().reads, 4u);
    EXPECT_FALSE(mc.busy());
}

TEST(MemoryController, IdleAtReflectsQueuesAndFlight)
{
    const DramConfig config = singleChannelDdr();
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_TRUE(mc.idleAt(0));
    EXPECT_TRUE(mc.idleAt(1'000'000));

    mc.enqueue(makeRead(config, 1, 0, 0));
    EXPECT_FALSE(mc.idleAt(0));
    std::vector<DramRequest> done;
    mc.tick(0, done);  // request now in flight
    EXPECT_FALSE(mc.idleAt(1));
    drain(mc, 1, 1000);
    EXPECT_TRUE(mc.idleAt(1000));
}

TEST(MemoryController, IdleAtFalseWhileRefreshDue)
{
    DramConfig config = singleChannelDdr().withRefresh(1000, 120);
    MemoryController mc(config, SchedulerKind::Fcfs);
    // Bank deadlines are staggered through one tREFI; before the
    // first is due the controller is idle, at/after it is not.
    EXPECT_TRUE(mc.idleAt(0));
    EXPECT_FALSE(mc.idleAt(1000));
    // Ticking services the refresh and re-arms the next deadline.
    std::vector<DramRequest> done;
    mc.tick(1000, done);
    EXPECT_TRUE(mc.idleAt(1001));
}

TEST(MemoryController, IdleAtFalseWithFaultInjectionActive)
{
    // The injector draws from its RNG every tick; skipping ticks
    // would desynchronize the fault stream, so an injecting
    // controller never reports idle.
    DramConfig config = singleChannelDdr();
    config.faults.enabled = true;
    config.faults.busStallProbability = 0.001;
    config.faults.busStallCycles = 12;
    MemoryController mc(config, SchedulerKind::Fcfs);
    EXPECT_FALSE(mc.idleAt(0));
}

} // namespace
} // namespace smtdram
