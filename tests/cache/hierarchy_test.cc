/** @file Unit tests for the multi-level hierarchy and its miss path. */

#include <gtest/gtest.h>

#include <map>

#include "cache/hierarchy.hh"

#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

/** Test fixture wiring a hierarchy to a real DRAM system. */
class HierarchyTest : public testing::Test
{
  protected:
    HierarchyTest()
        : dram_(DramConfig::ddrSdram(2), SchedulerKind::HitFirst),
          hierarchy_(config(), dram_, events_, 2)
    {
        hierarchy_.setMissCallback(
            [this](std::uint64_t miss_id, Cycle when) {
                completions_[miss_id] = when;
            });
    }

    static HierarchyConfig
    config()
    {
        HierarchyConfig c;
        // Disable the TLB penalty so latencies are exact.
        c.tlbMissPenalty = 0;
        return c;
    }

    /** Advance the machine to the given cycle. */
    void
    runTo(Cycle cycle)
    {
        for (Cycle c = now_ + 1; c <= cycle; ++c) {
            events_.runUntil(c);
            dram_.tick(c);
            hierarchy_.tick(c);
        }
        now_ = cycle;
    }

    /** Run until the miss completes; returns its completion cycle. */
    Cycle
    waitFor(std::uint64_t miss_id, Cycle deadline = 5000)
    {
        while (now_ < deadline && !completions_.count(miss_id))
            runTo(now_ + 1);
        EXPECT_TRUE(completions_.count(miss_id))
            << "miss " << miss_id << " never completed";
        return completions_.count(miss_id) ? completions_[miss_id] : 0;
    }

    EventQueue events_;
    DramSystem dram_;
    Hierarchy hierarchy_;
    std::map<std::uint64_t, Cycle> completions_;
    Cycle now_ = 0;
};

TEST_F(HierarchyTest, ColdLoadGoesToDram)
{
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingDramReads(0), 1u);
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 1u);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 1u);
    const Cycle done = waitFor(r.missId);
    // At least the DRAM latency: 45+45+30 plus overheads.
    EXPECT_GE(done, 120u);
    EXPECT_EQ(hierarchy_.pendingDramReads(0), 0u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 1u);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    const AccessResult miss =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    waitFor(miss.missId);
    const AccessResult hit =
        hierarchy_.access(AccessKind::Load, 0, 0x100, now_);
    EXPECT_EQ(hit.status, AccessResult::Status::Hit);
    EXPECT_EQ(hit.latency, 1u);
}

TEST_F(HierarchyTest, SameLineDifferentWordHits)
{
    const AccessResult miss =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    waitFor(miss.missId);
    const AccessResult hit =
        hierarchy_.access(AccessKind::Load, 0, 0x138, now_);
    EXPECT_EQ(hit.status, AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, L2HitLatency)
{
    // Prewarm into L2/L3 but not L1.
    hierarchy_.prewarmLine(0, 0x100, false);
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 0u);
    const Cycle done = waitFor(r.missId);
    EXPECT_EQ(done, 1u + 10u);  // L1 + L2 latency
}

TEST_F(HierarchyTest, CoalescingSharesOneMshr)
{
    const AccessResult a =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    const AccessResult b =
        hierarchy_.access(AccessKind::Load, 0, 0x110, 0);
    EXPECT_EQ(a.status, AccessResult::Status::Pending);
    EXPECT_EQ(b.status, AccessResult::Status::Pending);
    EXPECT_NE(a.missId, b.missId);
    EXPECT_EQ(hierarchy_.outstandingLines(), 1u);
    EXPECT_EQ(hierarchy_.coalescedTargets(), 1u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 1u);
    const Cycle ca = waitFor(a.missId);
    const Cycle cb = waitFor(b.missId);
    EXPECT_EQ(ca, cb);  // one fill completes both
}

TEST_F(HierarchyTest, MshrLimitBlocks)
{
    // 16 L1D MSHRs (Table 1): the 17th distinct-line miss blocks.
    for (int i = 0; i < 16; ++i) {
        const AccessResult r = hierarchy_.access(
            AccessKind::Load, 0, static_cast<Addr>(i) * 64, 0);
        ASSERT_EQ(r.status, AccessResult::Status::Pending) << i;
    }
    const AccessResult blocked =
        hierarchy_.access(AccessKind::Load, 0, 17 * 64, 0);
    EXPECT_EQ(blocked.status, AccessResult::Status::Blocked);
    EXPECT_GT(hierarchy_.blockedAccesses(), 0u);

    // After the fills return, capacity frees up again.
    runTo(3000);
    const AccessResult retry =
        hierarchy_.access(AccessKind::Load, 0, 17 * 64, now_);
    EXPECT_EQ(retry.status, AccessResult::Status::Pending);
}

TEST_F(HierarchyTest, StoreMissFillsDirtyAndWritesBackToDram)
{
    // A store miss write-allocates; the line must eventually come
    // back out as a DRAM write when evicted.
    const AccessResult st =
        hierarchy_.access(AccessKind::Store, 0, 0x100, 0);
    ASSERT_EQ(st.status, AccessResult::Status::Pending);
    waitFor(st.missId);
    EXPECT_EQ(hierarchy_.dramWritesIssued(), 0u);

    // Evict it from every level.  Frames are allocated sequentially
    // on first touch (bin hopping), so virtual strides do not map to
    // cache sets directly; instead touch one line in each of many
    // fresh pages — more than 5x the L3 capacity in set pressure —
    // so every L3 set, including the dirty line's, overflows.
    for (int i = 1; i <= 700; ++i) {
        const Addr conflict =
            0x100 + static_cast<Addr>(i) * 8 * 1024;
        const AccessResult r =
            hierarchy_.access(AccessKind::Load, 0, conflict, now_);
        if (r.status == AccessResult::Status::Pending)
            waitFor(r.missId, now_ + 5000);
        else
            runTo(now_ + 2);
    }
    runTo(now_ + 2000);
    EXPECT_GE(hierarchy_.dramWritesIssued(), 1u);
}

TEST_F(HierarchyTest, PerThreadCountersAreIndependent)
{
    hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    hierarchy_.access(AccessKind::Load, 1, 0x100, 0);
    // Thread-private address spaces: same vaddr, two lines, two
    // DRAM reads, counters tracked per thread.
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 1u);
    EXPECT_EQ(hierarchy_.pendingDataMisses(1), 1u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 2u);
}

TEST_F(HierarchyTest, InstFetchDoesNotCountAsDataMiss)
{
    const AccessResult r =
        hierarchy_.access(AccessKind::InstFetch, 0, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(hierarchy_.pendingDataMisses(0), 0u);
    EXPECT_EQ(hierarchy_.pendingL2Misses(0), 1u);
}

TEST_F(HierarchyTest, FetchAndLoadCoalesceOnOneLine)
{
    const AccessResult f =
        hierarchy_.access(AccessKind::InstFetch, 0, 0x100, 0);
    const AccessResult l =
        hierarchy_.access(AccessKind::Load, 0, 0x104, 0);
    EXPECT_EQ(hierarchy_.outstandingLines(), 1u);
    const Cycle cf = waitFor(f.missId);
    const Cycle cl = waitFor(l.missId);
    EXPECT_EQ(cf, cl);
    // The fill lands in both L1s: both kinds now hit.
    EXPECT_EQ(hierarchy_.access(AccessKind::InstFetch, 0, 0x100, now_)
                  .status,
              AccessResult::Status::Hit);
    EXPECT_EQ(
        hierarchy_.access(AccessKind::Load, 0, 0x104, now_).status,
        AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, SnapshotProviderFeedsDramRequests)
{
    hierarchy_.setSnapshotProvider([](ThreadId) {
        ThreadSnapshot s;
        s.robOccupancy = 99;
        return s;
    });
    ThreadSnapshot seen;
    dram_.setReadCallback(
        [&](const DramRequest &req) { seen = req.snap; });
    // NOTE: overriding the DRAM read callback detaches the
    // hierarchy's fill path, so only inspect the request here.
    hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    for (Cycle c = 1; c < 500; ++c)
        dram_.tick(c);
    EXPECT_EQ(seen.robOccupancy, 99u);
    EXPECT_EQ(seen.outstandingRequests, 1u);  // includes itself
}

TEST_F(HierarchyTest, InfiniteL3StopsDramTraffic)
{
    HierarchyConfig config;
    config.l3.infinite = true;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    std::map<std::uint64_t, Cycle> done;
    h.setMissCallback([&](std::uint64_t id, Cycle when) {
        done[id] = when;
    });

    const AccessResult r = h.access(AccessKind::Load, 0, 0x100, 0);
    ASSERT_EQ(r.status, AccessResult::Status::Pending);
    for (Cycle c = 1; c <= 100; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    ASSERT_TRUE(done.count(r.missId));
    EXPECT_EQ(done[r.missId], 1u + 10u + 20u);  // L1+L2+L3 trip
    EXPECT_EQ(h.dramReadsIssued(), 0u);
}

TEST_F(HierarchyTest, PrewarmIsInvisibleToStats)
{
    hierarchy_.prewarmLine(0, 0x100, true);
    EXPECT_EQ(hierarchy_.l1d().demandStats().total(), 0u);
    EXPECT_EQ(hierarchy_.dramReadsIssued(), 0u);
    const AccessResult r =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(r.status, AccessResult::Status::Hit);
}

TEST_F(HierarchyTest, TlbPenaltyAddsToHitLatency)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 30;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    h.prewarmLine(0, 0x100, true);

    const AccessResult first =
        h.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(first.status, AccessResult::Status::Hit);
    EXPECT_EQ(first.latency, 31u);  // L1 (1) + DTLB miss (30)
    const AccessResult second =
        h.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(second.latency, 1u);  // DTLB now hits
}

TEST_F(HierarchyTest, PrefetcherFetchesNextLine)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.prefetchNextLine = true;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    std::map<std::uint64_t, Cycle> done;
    h.setMissCallback([&](std::uint64_t id, Cycle when) {
        done[id] = when;
    });

    const AccessResult r = h.access(AccessKind::Load, 0, 0x100, 0);
    ASSERT_EQ(r.status, AccessResult::Status::Pending);
    EXPECT_EQ(h.prefetchesIssued(), 1u);
    EXPECT_EQ(h.dramReadsIssued(), 1u);  // demand only

    for (Cycle c = 1; c <= 2000; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    // The next line landed in L2/L3 but not the L1.
    const AccessResult next =
        h.access(AccessKind::Load, 0, 0x140, 2001);
    EXPECT_EQ(next.status, AccessResult::Status::Pending);
    EXPECT_EQ(h.prefetchesUseful(), 1u);
    for (Cycle c = 2001; c <= 2100; ++c) {
        events.runUntil(c);
        dram.tick(c);
        h.tick(c);
    }
    ASSERT_TRUE(done.count(next.missId));
    EXPECT_EQ(done[next.missId], 2001u + 11u);  // L2 hit round trip
}

TEST_F(HierarchyTest, PrefetcherRespectsItsMshrBudget)
{
    HierarchyConfig config;
    config.tlbMissPenalty = 0;
    config.prefetchNextLine = true;
    config.prefetchMshrs = 2;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    // Demand misses to well-separated lines: each wants a prefetch,
    // but only two prefetch MSHRs exist.
    for (int i = 0; i < 6; ++i)
        h.access(AccessKind::Load, 0, static_cast<Addr>(i) * 4096, 0);
    EXPECT_EQ(h.prefetchesIssued(), 2u);
}

TEST_F(HierarchyTest, PrefetchOffByDefault)
{
    hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    EXPECT_EQ(hierarchy_.prefetchesIssued(), 0u);
}

TEST_F(HierarchyTest, LoadsAreCriticalStoresAreNot)
{
    std::vector<bool> crit;
    dram_.setReadCallback([&](const DramRequest &req) {
        crit.push_back(req.critical);
    });
    hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    hierarchy_.access(AccessKind::Store, 0, 0x10000, 0);
    for (Cycle c = 1; c <= 2000; ++c)
        dram_.tick(c);
    ASSERT_EQ(crit.size(), 2u);
    EXPECT_TRUE(crit[0]);
    EXPECT_FALSE(crit[1]);
}

TEST_F(HierarchyTest, GenerationMovesOnAllocationAndFillOnly)
{
    const std::uint64_t g0 = hierarchy_.resourceGeneration();
    const AccessResult miss =
        hierarchy_.access(AccessKind::Load, 0, 0x100, 0);
    ASSERT_EQ(miss.status, AccessResult::Status::Pending);
    const std::uint64_t g1 = hierarchy_.resourceGeneration();
    EXPECT_GT(g1, g0);  // MSHR allocation

    // Fill the remaining L1D MSHRs, then probe one line too many.
    for (int i = 1; i < 16; ++i)
        hierarchy_.access(AccessKind::Load, 0,
                          0x100 + static_cast<Addr>(i) * 64, 0);
    const std::uint64_t g_full = hierarchy_.resourceGeneration();
    const AccessResult blocked =
        hierarchy_.access(AccessKind::Load, 0, 0x100 + 17 * 64, 0);
    ASSERT_EQ(blocked.status, AccessResult::Status::Blocked);
    EXPECT_EQ(blocked.blockedGen, g_full);
    EXPECT_EQ(hierarchy_.resourceGeneration(), g_full);  // no move

    waitFor(miss.missId);
    const std::uint64_t g_filled = hierarchy_.resourceGeneration();
    EXPECT_GT(g_filled, g_full);  // fills

    const AccessResult hit =
        hierarchy_.access(AccessKind::Load, 0, 0x100, now_);
    ASSERT_EQ(hit.status, AccessResult::Status::Hit);
    EXPECT_EQ(hierarchy_.resourceGeneration(), g_filled);
}

TEST(HierarchyBlocking, DramQueueBlockReportsGenerationZero)
{
    // MSHRs far larger than the DRAM read queues, so the first block
    // is on queue space — which frees without the hierarchy seeing
    // it, so the access must not be gated on the generation.
    HierarchyConfig config;
    config.l1d.mshrs = config.l2.mshrs = config.l3.mshrs = 4096;
    EventQueue events;
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    Hierarchy h(config, dram, events, 1);
    AccessResult r;
    for (Addr i = 0; i < 2048; ++i) {
        r = h.access(AccessKind::Load, 0, i * 64, 0);
        if (r.status == AccessResult::Status::Blocked)
            break;
    }
    ASSERT_EQ(r.status, AccessResult::Status::Blocked);
    EXPECT_EQ(r.blockedGen, 0u);
    EXPECT_EQ(h.blockedAccesses(), 1u);
}

TEST(HierarchyBlocking, ReplayMatchesARealBlockedAccess)
{
    // Two identical hierarchies with one L1D MSHR and a 4-entry DTLB.
    // Each probes the same blocked loads over more pages than the
    // DTLB holds; A re-walks every probe, B replays every repeat.
    // TLB LRU state, TLB stats and the blocked count must agree.
    HierarchyConfig config;
    config.l1d.mshrs = 1;
    config.tlbEntries = 4;
    struct Machine {
        explicit Machine(const HierarchyConfig &c)
            : dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst),
              h(c, dram, events, 1)
        {
        }
        EventQueue events;
        DramSystem dram;
        Hierarchy h;
    };
    Machine a(config), b(config);
    const Addr page = config.pageBytes;
    ASSERT_EQ(a.h.access(AccessKind::Load, 0, 0, 0).status,
              AccessResult::Status::Pending);
    ASSERT_EQ(b.h.access(AccessKind::Load, 0, 0, 0).status,
              AccessResult::Status::Pending);
    const std::uint64_t gen = b.h.resourceGeneration();

    for (int round = 0; round < 5; ++round) {
        for (Addr p = 1; p <= 6; ++p) {
            const Addr vaddr = p * page + static_cast<Addr>(round) * 64;
            const AccessResult ra =
                a.h.access(AccessKind::Load, 0, vaddr, 0);
            ASSERT_EQ(ra.status, AccessResult::Status::Blocked);
            if (round == 0) {
                const AccessResult rb =
                    b.h.access(AccessKind::Load, 0, vaddr, 0);
                ASSERT_EQ(rb.status, AccessResult::Status::Blocked);
                ASSERT_EQ(rb.blockedGen, gen);
            } else {
                ASSERT_EQ(b.h.resourceGeneration(), gen);
                b.h.replayBlocked(AccessKind::Load, 0, vaddr);
            }
        }
    }
    EXPECT_EQ(a.h.blockedAccesses(), b.h.blockedAccesses());
    EXPECT_EQ(a.h.dtlb().stats().hits(), b.h.dtlb().stats().hits());
    EXPECT_EQ(a.h.dtlb().stats().misses(), b.h.dtlb().stats().misses());
    EXPECT_GT(a.h.dtlb().stats().misses(), 6u);  // LRU really churned
    EXPECT_EQ(a.h.itlb().stats().total(), b.h.itlb().stats().total());
    // Same LRU order: every page's next lookup hits or misses alike.
    for (Addr p = 6; p >= 1; --p) {
        EXPECT_EQ(a.h.access(AccessKind::Load, 0, p * page, 0).tlbPenalty,
                  b.h.access(AccessKind::Load, 0, p * page, 0).tlbPenalty)
            << "page " << p;
    }
}

} // namespace
} // namespace smtdram
