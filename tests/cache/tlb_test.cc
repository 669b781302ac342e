/** @file Unit tests for page tables and TLBs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <utility>

#include "cache/tlb.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

/** Reference true-LRU TLB: a std::list of keys, MRU first. */
class ListLruTlb
{
  public:
    explicit ListLruTlb(std::uint32_t entries) : entries_(entries) {}

    /** True on a hit; either way (tid, vpage) ends up MRU. */
    bool
    lookup(ThreadId tid, Addr vpage)
    {
        const std::pair<ThreadId, Addr> k{tid, vpage};
        const auto it = std::find(lru_.begin(), lru_.end(), k);
        const bool hit = it != lru_.end();
        if (hit)
            lru_.erase(it);
        lru_.push_front(k);
        if (lru_.size() > entries_)
            lru_.pop_back();
        return hit;
    }

  private:
    std::uint32_t entries_;
    std::list<std::pair<ThreadId, Addr>> lru_;
};

TEST(PageTables, SequentialFirstTouchAllocation)
{
    PageTables pt(8192, 2);
    // Bin hopping: frames are handed out in touch order.
    EXPECT_EQ(pt.translate(0, 0x0000), 0u * 8192u);
    EXPECT_EQ(pt.translate(0, 0x8000000), 1u * 8192u);
    EXPECT_EQ(pt.translate(1, 0x0000), 2u * 8192u);
    EXPECT_EQ(pt.framesAllocated(), 3u);
}

TEST(PageTables, StableMapping)
{
    PageTables pt(8192, 1);
    const Addr first = pt.translate(0, 0x12345);
    EXPECT_EQ(pt.translate(0, 0x12345), first);
    EXPECT_EQ(pt.framesAllocated(), 1u);
}

TEST(PageTables, OffsetPreserved)
{
    PageTables pt(8192, 1);
    const Addr p = pt.translate(0, 0x12345);
    EXPECT_EQ(p & 8191u, 0x12345u & 8191u);
}

TEST(PageTables, ThreadsAreIsolated)
{
    PageTables pt(8192, 2);
    const Addr a = pt.translate(0, 0x4000);
    const Addr b = pt.translate(1, 0x4000);
    EXPECT_NE(a, b);  // same vaddr, different address spaces
}

TEST(PageTables, InterleavedTouchesInterleaveFrames)
{
    PageTables pt(8192, 2);
    const Addr a0 = pt.translate(0, 0);
    const Addr b0 = pt.translate(1, 0);
    const Addr a1 = pt.translate(0, 8192);
    EXPECT_EQ(a0 / 8192, 0u);
    EXPECT_EQ(b0 / 8192, 1u);
    EXPECT_EQ(a1 / 8192, 2u);
}

/**
 * First-touch frame order against a std::map model over a random
 * multi-thread touch stream: each new (tid, vpage) takes the next
 * frame, repeats return their first frame, offsets pass through.
 * The second pass hands frames out from an external source, which
 * must be asked exactly once per first touch, by the touching thread.
 */
TEST(PageTables, FirstTouchOrderMatchesModel)
{
    for (const bool external : {false, true}) {
        PageTables pt(8192, 3);
        std::vector<ThreadId> asked;
        if (external) {
            pt.setFrameSource([&asked](ThreadId tid) {
                asked.push_back(tid);
                return Addr{1000} + 7 * asked.size();
            });
        }
        std::map<std::pair<ThreadId, Addr>, Addr> model;
        std::vector<ThreadId> touchers;
        Addr last[3] = {0, 0, 0};
        Rng rng(external ? 2 : 1);
        for (int i = 0; i < 40'000; ++i) {
            const auto tid = static_cast<ThreadId>(rng.below(3));
            // Half the touches revisit the thread's last page, which
            // the one-entry cache answers.
            Addr page = last[tid] >> 13;
            if (rng.chance(0.5))
                page = rng.below(4096);
            const Addr vaddr = (page << 13) | rng.below(8192);
            last[tid] = vaddr;
            const auto [it, fresh] = model.try_emplace(
                {tid, vaddr >> 13},
                external ? Addr{1000} + 7 * (model.size() + 1)
                         : model.size());
            if (fresh)
                touchers.push_back(tid);
            ASSERT_EQ(pt.translate(tid, vaddr),
                      (it->second << 13) | (vaddr & 8191))
                << "step " << i;
        }
        EXPECT_EQ(pt.framesAllocated(), model.size());
        if (external) {
            EXPECT_EQ(asked, touchers);
        }
    }
}

TEST(Tlb, HitAfterMiss)
{
    Tlb tlb(4, 30);
    EXPECT_EQ(tlb.lookup(0, 100), 30u);
    EXPECT_EQ(tlb.lookup(0, 100), 0u);
    EXPECT_EQ(tlb.stats().hits(), 1u);
    EXPECT_EQ(tlb.stats().misses(), 1u);
}

TEST(Tlb, ThreadTagged)
{
    Tlb tlb(4, 30);
    tlb.lookup(0, 100);
    // Same vpage from another thread is a distinct entry.
    EXPECT_EQ(tlb.lookup(1, 100), 30u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb(2, 30);
    tlb.lookup(0, 1);
    tlb.lookup(0, 2);
    tlb.lookup(0, 1);  // 1 is MRU
    tlb.lookup(0, 3);  // evicts 2
    EXPECT_EQ(tlb.lookup(0, 1), 0u);
    EXPECT_EQ(tlb.lookup(0, 2), 30u);
}

TEST(Tlb, CapacityHolds)
{
    Tlb tlb(128, 30);
    for (Addr v = 0; v < 128; ++v)
        tlb.lookup(0, v);
    for (Addr v = 0; v < 128; ++v)
        EXPECT_EQ(tlb.lookup(0, v), 0u) << v;
}

/**
 * Random (tid, vpage) streams against the list model: every lookup's
 * hit or miss, hence the whole true-LRU order, must agree.  The page
 * range is a few times the capacity so hits, misses, MRU repeats and
 * evictions all occur; capacity 1 and 2 cover the degenerate lists.
 */
TEST(Tlb, MatchesListLruModel)
{
    for (const std::uint32_t entries : {1u, 2u, 128u}) {
        Tlb tlb(entries, 30);
        ListLruTlb model(entries);
        Rng rng(entries);
        std::uint64_t hits = 0;
        for (int i = 0; i < 50'000; ++i) {
            const auto tid = static_cast<ThreadId>(rng.below(4));
            const Addr vpage = rng.below(entries + entries / 2 + 2);
            const bool hit = model.lookup(tid, vpage);
            hits += hit;
            ASSERT_EQ(tlb.lookup(tid, vpage), hit ? 0u : 30u)
                << "capacity " << entries << " step " << i;
        }
        EXPECT_EQ(tlb.stats().hits(), hits);
        EXPECT_GT(hits, 0u);
        EXPECT_GT(tlb.stats().misses(), 0u);
    }
}

TEST(Tlb, ResetStats)
{
    Tlb tlb(4, 30);
    tlb.lookup(0, 1);
    tlb.resetStats();
    EXPECT_EQ(tlb.stats().total(), 0u);
}

} // namespace
} // namespace smtdram
