/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "common/random.hh"

namespace smtdram
{
namespace
{

CacheLevelConfig
tiny()
{
    // 2 sets x 2 ways x 64B lines = 256 bytes.
    CacheLevelConfig c;
    c.sizeBytes = 256;
    c.assoc = 2;
    c.lineBytes = 64;
    c.latency = 1;
    return c;
}

/** Address for (set, tag) in the tiny cache: 2 sets. */
Addr
addrOf(std::uint64_t set, std::uint64_t tag)
{
    return ((tag * 2 + set) << 6);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.probe(addrOf(0, 1)));
    EXPECT_FALSE(cache.access(addrOf(0, 1), false));
    cache.insert(addrOf(0, 1), false);
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_TRUE(cache.access(addrOf(0, 1), false));
    EXPECT_EQ(cache.demandStats().hits(), 1u);
    EXPECT_EQ(cache.demandStats().misses(), 1u);
}

TEST(CacheArray, ProbeHasNoSideEffects)
{
    CacheArray cache(tiny(), "t");
    cache.probe(addrOf(0, 1));
    cache.probe(addrOf(0, 1));
    EXPECT_EQ(cache.demandStats().total(), 0u);
}

TEST(CacheArray, LruEviction)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.insert(addrOf(0, 2), false);
    cache.access(addrOf(0, 1), false);  // make tag 1 MRU
    const CacheArray::Victim v = cache.insert(addrOf(0, 3), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, addrOf(0, 2));  // LRU way evicted
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_FALSE(cache.probe(addrOf(0, 2)));
}

TEST(CacheArray, EvictionReportsDirtiness)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), true);
    cache.insert(addrOf(0, 2), false);
    const CacheArray::Victim v1 = cache.insert(addrOf(0, 3), false);
    ASSERT_TRUE(v1.valid);
    EXPECT_TRUE(v1.dirty);
    const CacheArray::Victim v2 = cache.insert(addrOf(0, 4), false);
    ASSERT_TRUE(v2.valid);
    EXPECT_FALSE(v2.dirty);
}

TEST(CacheArray, SetsAreIndependent)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.insert(addrOf(0, 2), false);
    // Filling set 0 must not evict set 1 and vice versa.
    const CacheArray::Victim v = cache.insert(addrOf(1, 1), false);
    EXPECT_FALSE(v.valid);
    EXPECT_TRUE(cache.probe(addrOf(0, 1)));
    EXPECT_TRUE(cache.probe(addrOf(0, 2)));
}

TEST(CacheArray, StoreAccessSetsDirty)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.access(addrOf(0, 1), true);  // store hit
    cache.insert(addrOf(0, 2), false);
    const CacheArray::Victim v = cache.insert(addrOf(0, 3), false);
    // tag 1 was MRU; tag 2 evicted clean.  Evict tag 1 next:
    const CacheArray::Victim v2 = cache.insert(addrOf(0, 4), false);
    ASSERT_TRUE(v.valid);
    ASSERT_TRUE(v2.valid);
    EXPECT_TRUE(v.dirty || v2.dirty);
}

TEST(CacheArray, SetDirtyOnPresentLine)
{
    CacheArray cache(tiny(), "t");
    EXPECT_FALSE(cache.setDirty(addrOf(0, 1)));
    cache.insert(addrOf(0, 1), false);
    EXPECT_TRUE(cache.setDirty(addrOf(0, 1)));
}

TEST(CacheArray, InvalidateReturnsState)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(1, 5), true);
    const CacheArray::Victim v = cache.invalidate(addrOf(1, 5));
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(cache.probe(addrOf(1, 5)));
    const CacheArray::Victim gone = cache.invalidate(addrOf(1, 5));
    EXPECT_FALSE(gone.valid);
}

TEST(CacheArray, InfiniteModeAlwaysHits)
{
    CacheLevelConfig config = tiny();
    config.infinite = true;
    CacheArray cache(config, "inf");
    for (Addr a = 0; a < 1 << 20; a += 4096) {
        EXPECT_TRUE(cache.probe(a));
        EXPECT_TRUE(cache.access(a, false));
    }
    EXPECT_EQ(cache.demandStats().misses(), 0u);
}

TEST(CacheArray, Table1Geometries)
{
    CacheLevelConfig l1{64 * 1024, 2, 64, 1, 16};
    CacheLevelConfig l2{512 * 1024, 2, 64, 10, 16};
    CacheLevelConfig l3{4 * 1024 * 1024, 4, 64, 20, 16};
    EXPECT_EQ(CacheArray(l1, "L1").numSets(), 512u);
    EXPECT_EQ(CacheArray(l2, "L2").numSets(), 4096u);
    EXPECT_EQ(CacheArray(l3, "L3").numSets(), 16384u);
}

void
expectSameVictim(const CacheArray::Victim &a, const CacheArray::Victim &b,
                 int step)
{
    EXPECT_EQ(a.valid, b.valid) << "step " << step;
    EXPECT_EQ(a.dirty, b.dirty) << "step " << step;
    if (a.valid) {
        EXPECT_EQ(a.lineAddr, b.lineAddr) << "step " << step;
    }
}

/**
 * The single-scan paths against the probe-then-act sequences they
 * replace, on a random stream over a 4-set, 4-way array: fill() must
 * evict the same victims (clean or dirty) as probe + insert/setDirty,
 * and accessIfHit() must hit, update LRU and count exactly like
 * probe + access.  Invalidations leave holes between valid ways, so
 * the victim choice meets invalid ways at every position.
 */
TEST(CacheArray, SingleScanMatchesProbeThenInsert)
{
    CacheLevelConfig c;
    c.sizeBytes = 4 * 4 * 64;
    c.assoc = 4;
    c.lineBytes = 64;
    CacheArray fast(c, "scan");
    CacheArray ref(c, "probe");
    const auto addr = [](std::uint64_t set, std::uint64_t tag) {
        return (tag * 4 + set) << 6;
    };
    Rng rng(99);
    for (int step = 0; step < 50'000; ++step) {
        const Addr a = addr(rng.below(4), rng.below(10));
        const bool dirty = rng.chance(0.3);
        switch (rng.below(4)) {
          case 0: {
            CacheArray::Victim want;
            if (!ref.probe(a))
                want = ref.insert(a, dirty);
            else if (dirty)
                ref.setDirty(a);
            expectSameVictim(fast.fill(a, dirty), want, step);
            break;
          }
          case 1: {
            const bool want = ref.probe(a) && ref.access(a, dirty);
            EXPECT_EQ(fast.accessIfHit(a, dirty), want) << "step " << step;
            break;
          }
          case 2:
            EXPECT_EQ(fast.access(a, dirty), ref.access(a, dirty))
                << "step " << step;
            break;
          default:
            if (rng.chance(0.2))
                expectSameVictim(fast.invalidate(a), ref.invalidate(a),
                                 step);
        }
    }
    for (std::uint64_t set = 0; set < 4; ++set) {
        for (std::uint64_t tag = 0; tag < 10; ++tag)
            EXPECT_EQ(fast.probe(addr(set, tag)), ref.probe(addr(set, tag)));
    }
    EXPECT_EQ(fast.demandStats().hits(), ref.demandStats().hits());
    EXPECT_EQ(fast.demandStats().misses(), ref.demandStats().misses());
}

TEST(CacheArray, FillKeepsPresentLine)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    cache.insert(addrOf(0, 2), false);
    // Present: no victim, no LRU update, only the dirty bit merges.
    EXPECT_FALSE(cache.fill(addrOf(0, 1), true).valid);
    const CacheArray::Victim v = cache.insert(addrOf(0, 3), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, addrOf(0, 1));
    EXPECT_TRUE(v.dirty);
}

TEST(CacheArrayDeathTest, DoubleInsertPanics)
{
    CacheArray cache(tiny(), "t");
    cache.insert(addrOf(0, 1), false);
    EXPECT_DEATH(cache.insert(addrOf(0, 1), false),
                 "already-present");
}

TEST(CacheArray, ResetStats)
{
    CacheArray cache(tiny(), "t");
    cache.access(addrOf(0, 1), false);
    cache.resetStats();
    EXPECT_EQ(cache.demandStats().total(), 0u);
}

} // namespace
} // namespace smtdram
