/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

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

/**
 * warm() against the line-by-line fill() sequence it replaces, over
 * every Table 1 geometry plus a 1-way, a 3-way, an 8-way and an
 * infinite array.  Each trial warms up to 300 runs, each a random
 * slice of a distinct 128-line page.  The pages crowd into a few
 * stretches of sets, so sets overflow and evict, and on the arrays
 * with fewer sets than a page holds lines the runs wrap past the last
 * set.  The two arrays must match in tags, state bits, LRU stamps,
 * way positions and use clock.
 */
TEST(CacheArray, WarmMatchesFillSequence)
{
    std::vector<CacheLevelConfig> geometries = {
        {64 * 1024, 2, 64, 1, 16},         // Table 1 L1
        {512 * 1024, 2, 64, 10, 16},       // Table 1 L2
        {4 * 1024 * 1024, 4, 64, 20, 16},  // Table 1 L3
        {16 * 64, 1, 64, 1, 16},
        {64 * 3 * 64, 3, 64, 1, 16},
        {1024 * 8 * 64, 8, 64, 1, 16},
    };
    geometries.push_back(geometries[2]);
    geometries.back().infinite = true;
    constexpr std::uint64_t kPageLines = 128;
    Rng rng(2227);
    for (const CacheLevelConfig &c : geometries) {
        // Frames this far apart start on the same set.
        const std::uint64_t stride =
            std::max<std::uint64_t>(1, c.numSets() / kPageLines);
        for (int trial = 0; trial < 8; ++trial) {
            SCOPED_TRACE(testing::Message()
                         << c.sizeBytes << "B " << c.assoc << "-way"
                         << (c.infinite ? " infinite" : "") << ", trial "
                         << trial);
            std::vector<CacheArray::LineRun> runs;
            std::set<std::uint64_t> frames;
            std::set<std::uint64_t> sets;
            std::uint64_t lines = 0;
            const std::uint64_t n_runs = 1 + rng.below(300);
            while (runs.size() < n_runs) {
                const std::uint64_t frame =
                    rng.below(4) + stride * rng.below(1024);
                if (!frames.insert(frame).second)
                    continue;
                const std::uint64_t first = rng.below(kPageLines);
                const std::uint64_t count =
                    1 + rng.below(kPageLines - first);
                const std::uint64_t line = frame * kPageLines + first;
                runs.push_back({line * 64, count});
                for (std::uint64_t k = 0; k < count; ++k)
                    sets.insert((line + k) % c.numSets());
                lines += count;
            }
            CacheArray warmed(c, "x");
            warmed.warm(runs);
            CacheArray filled(c, "x");
            std::uint64_t present = 0;
            for (const CacheArray::LineRun &run : runs) {
                for (std::uint64_t k = 0; k < run.lines; ++k) {
                    filled.fill(run.line + k * 64, false);
                    present += warmed.probe(run.line + k * 64);
                }
            }
            EXPECT_TRUE(warmed == filled);
            // More lines than the touched sets hold: some were evicted.
            if (!c.infinite && lines > sets.size() * c.assoc) {
                EXPECT_LT(present, lines);
            }
        }
    }
}

TEST(CacheArrayDeathTest, WarmAfterUsePanics)
{
    CacheArray cache(tiny(), "t");
    cache.fill(addrOf(0, 1), false);
    EXPECT_DEATH(cache.warm({{addrOf(1, 1), 1}}),
                 "never installed or touched");
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
