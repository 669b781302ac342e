/** @file Unit tests for the synthetic instruction stream generator. */

#include <gtest/gtest.h>

#include <map>

#include "workload/spec2000.hh"
#include "workload/synthetic_stream.hh"

namespace smtdram
{
namespace
{

AppProfile
basicProfile()
{
    AppProfile p;
    p.name = "test-app";
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.12;
    p.coldBytes = 1 << 20;
    p.hotBytes = 1 << 15;
    p.coldFrac = 0.2;
    // Pattern tests below inspect raw address sequences; disable
    // the miss-phase modulation (tested separately).
    p.memPhaseFrac = 1.0;
    return p;
}

TEST(SyntheticStream, DeterministicForSameSeed)
{
    SyntheticStream a(basicProfile(), 7), b(basicProfile(), 7);
    for (int i = 0; i < 5000; ++i) {
        const MicroOp x = a.next();
        const MicroOp y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
        ASSERT_EQ(x.effAddr, y.effAddr);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.dep1, y.dep1);
    }
}

TEST(SyntheticStream, SeedsChangeTheStream)
{
    SyntheticStream a(basicProfile(), 1), b(basicProfile(), 2);
    int diff = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next().effAddr != b.next().effAddr)
            ++diff;
    }
    EXPECT_GT(diff, 0);
}

TEST(SyntheticStream, MixMatchesProfileApproximately)
{
    const AppProfile p = basicProfile();
    SyntheticStream s(p, 42);
    std::map<OpClass, int> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[s.next().cls];
    // The stream visits PCs loop-weighted, so dynamic fractions
    // deviate from the static text fractions like a real program's.
    EXPECT_NEAR(counts[OpClass::Load] / double(n), p.loadFrac, 0.10);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), p.storeFrac, 0.10);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), p.branchFrac,
                0.10);
    EXPECT_GT(counts[OpClass::Load] / double(n), 0.25 * p.loadFrac);
    EXPECT_GT(counts[OpClass::Branch] / double(n),
              0.25 * p.branchFrac);
}

TEST(SyntheticStream, ClassIsStablePerPc)
{
    // The "program text" property: re-visiting a PC must yield the
    // same instruction class (otherwise predictors cannot learn).
    SyntheticStream s(basicProfile(), 42);
    std::map<Addr, OpClass> text;
    for (int i = 0; i < 100000; ++i) {
        const MicroOp op = s.next();
        auto [it, fresh] = text.emplace(op.pc, op.cls);
        if (!fresh) {
            ASSERT_EQ(static_cast<int>(it->second),
                      static_cast<int>(op.cls))
                << "pc " << std::hex << op.pc;
        }
    }
}

TEST(SyntheticStream, PcStaysInCodeRegion)
{
    const AppProfile p = basicProfile();
    SyntheticStream s(p, 42);
    for (int i = 0; i < 50000; ++i) {
        const Addr pc = s.next().pc;
        EXPECT_GE(pc, SyntheticStream::kCodeBase);
        EXPECT_LT(pc, SyntheticStream::kCodeBase + p.codeBytes);
    }
}

/**
 * A call in the code region's last slot returns one slot past its
 * end, and a conditional branch there reads a loop counter.  gzip's
 * profile under another name (so another program text) does that at
 * seed 42.  In a busier variant (more branches, five times the
 * calls), a call at that one-past-the-end pc returns one slot further
 * still.  Under AddressSanitizer an out-of-bounds counter fails this
 * test.
 */
TEST(SyntheticStream, ReturnPastLastSlotStaysInBounds)
{
    AppProfile renamed = specProfile("gzip");
    renamed.name = "probe2227";
    AppProfile busier = specProfile("gzip");
    busier.name = "probe32060";
    busier.loadFrac = 0.2;
    busier.storeFrac = 0.1;
    busier.branchFrac = 0.2;
    busier.callFrac = 0.05;
    struct Case {
        AppProfile profile;
        int ops;
        /** Bytes past the region's end of the conditional branch. */
        Addr pastEnd;
    };
    for (const Case &c :
         {Case{renamed, 1'500'000, 0}, Case{busier, 50'000, 4}}) {
        SCOPED_TRACE(c.profile.name);
        const Addr site =
            SyntheticStream::kCodeBase + c.profile.codeBytes + c.pastEnd;
        SyntheticStream s(c.profile, 42);
        int conditionals = 0;
        for (int i = 0; i < c.ops; ++i) {
            const MicroOp op = s.next();
            conditionals += op.pc == site && op.cls == OpClass::Branch &&
                            !op.isCall && !op.isReturn;
        }
        EXPECT_GT(conditionals, 0);
    }
}

TEST(SyntheticStream, MemoryAddressesStayInTheirRegions)
{
    const AppProfile p = basicProfile();
    SyntheticStream s(p, 42);
    for (int i = 0; i < 100000; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        if (op.effAddr >= SyntheticStream::kColdBase) {
            EXPECT_LT(op.effAddr,
                      SyntheticStream::kColdBase + p.coldBytes);
        } else {
            EXPECT_GE(op.effAddr, SyntheticStream::kHotBase);
            EXPECT_LT(op.effAddr,
                      SyntheticStream::kHotBase + p.hotBytes);
        }
    }
}

TEST(SyntheticStream, ColdFractionApproximatelyRespected)
{
    const AppProfile p = basicProfile();
    SyntheticStream s(p, 42);
    int mem = 0, cold = 0;
    for (int i = 0; i < 300000; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        ++mem;
        cold += op.effAddr >= SyntheticStream::kColdBase ? 1 : 0;
    }
    EXPECT_NEAR(cold / double(mem), p.coldFrac, 0.05);
}

TEST(SyntheticStream, StreamingPatternIsSequential)
{
    AppProfile p = basicProfile();
    p.coldPattern = AccessPattern::Streaming;
    p.streamStepBytes = 64;
    p.coldFrac = 1.0;
    SyntheticStream s(p, 42);
    Addr prev = 0;
    bool first = true;
    for (int i = 0; i < 1000; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        if (!first && op.effAddr > prev) {
            EXPECT_EQ(op.effAddr - prev, 64u);
        }
        prev = op.effAddr;
        first = false;
    }
}

TEST(SyntheticStream, StridedPatternUsesConfiguredStride)
{
    AppProfile p = basicProfile();
    p.coldPattern = AccessPattern::Strided;
    p.strideBytes = 1088;
    p.coldFrac = 1.0;
    SyntheticStream s(p, 42);
    Addr prev = 0;
    bool first = true;
    for (int i = 0; i < 500; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        if (!first && op.effAddr > prev) {
            EXPECT_EQ(op.effAddr - prev, 1088u);
        }
        prev = op.effAddr;
        first = false;
    }
}

TEST(SyntheticStream, PointerChaseSerializesOnColdLoads)
{
    AppProfile p = basicProfile();
    p.coldPattern = AccessPattern::PointerChase;
    p.chaseChains = 1;
    p.coldFrac = 1.0;
    SyntheticStream s(p, 42);
    int cold_loads = 0, with_dep = 0;
    std::uint64_t idx = 0, last_cold = 0;
    for (int i = 0; i < 20000; ++i, ++idx) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load ||
            op.effAddr < SyntheticStream::kColdBase)
            continue;
        if (cold_loads > 0) {
            const std::uint64_t gap = idx - last_cold;
            if (gap <= 200) {
                EXPECT_EQ(op.dep1, gap) << "cold load " << cold_loads;
                ++with_dep;
            }
        }
        last_cold = idx;
        ++cold_loads;
    }
    EXPECT_GT(with_dep, 1000);
}

TEST(SyntheticStream, ChaseChainsRaiseParallelism)
{
    // With C chains the dependency reaches C cold loads back: the
    // average dep distance grows roughly C-fold.
    auto mean_dep = [](std::uint32_t chains) {
        AppProfile p = basicProfile();
        p.coldPattern = AccessPattern::PointerChase;
        p.chaseChains = chains;
        p.coldFrac = 1.0;
        SyntheticStream s(p, 42);
        double sum = 0;
        int n = 0;
        for (int i = 0; i < 50000; ++i) {
            const MicroOp op = s.next();
            if (op.cls == OpClass::Load && op.dep1 > 0 &&
                op.effAddr >= SyntheticStream::kColdBase) {
                sum += op.dep1;
                ++n;
            }
        }
        return sum / n;
    };
    EXPECT_GT(mean_dep(6), 2.5 * mean_dep(1));
}

TEST(SyntheticStream, BranchNextPcIsConsistent)
{
    SyntheticStream s(basicProfile(), 42);
    MicroOp prev;
    bool have_prev = false;
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = s.next();
        if (have_prev) {
            EXPECT_EQ(op.pc, prev.nextPc);
        }
        prev = op;
        have_prev = prev.cls == OpClass::Branch;
    }
}

TEST(SyntheticStream, BranchTargetsStablePerPc)
{
    SyntheticStream s(basicProfile(), 42);
    std::map<Addr, Addr> targets;
    for (int i = 0; i < 100000; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Branch || !op.taken || op.isReturn)
            continue;
        auto [it, fresh] = targets.emplace(op.pc, op.nextPc);
        if (!fresh) {
            ASSERT_EQ(it->second, op.nextPc);
        }
    }
}

TEST(SyntheticStream, CallsAndReturnsAreMatched)
{
    AppProfile p = basicProfile();
    p.callFrac = 0.05;
    SyntheticStream s(p, 42);
    std::vector<Addr> stack;
    int returns_checked = 0;
    for (int i = 0; i < 200000; ++i) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Branch)
            continue;
        if (op.isCall) {
            if (stack.size() < 64)
                stack.push_back(op.pc + 4);
            else
                stack.erase(stack.begin()),
                    stack.push_back(op.pc + 4);
        } else if (op.isReturn) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(op.nextPc, stack.back());
            stack.pop_back();
            ++returns_checked;
        }
    }
    // Returns are rare (the walk must hit a return site with a
    // call pending); every one seen must match, and some must occur.
    EXPECT_GT(returns_checked, 0);
}

TEST(SyntheticStream, MostBranchesArePredictableLoops)
{
    // With zero noise, branch outcomes per PC follow trip counters:
    // the taken fraction must be high (loop back-edges).
    AppProfile p = basicProfile();
    p.branchNoise = 0.0;
    SyntheticStream s(p, 42);
    int taken = 0, total = 0;
    for (int i = 0; i < 100000; ++i) {
        const MicroOp op = s.next();
        if (op.cls == OpClass::Branch && !op.isCall && !op.isReturn) {
            ++total;
            taken += op.taken ? 1 : 0;
        }
    }
    ASSERT_GT(total, 1000);
    EXPECT_GT(taken / double(total), 0.8);
}

TEST(SyntheticStreamDeathTest, OverfullMixRejected)
{
    AppProfile p = basicProfile();
    p.loadFrac = 0.6;
    p.storeFrac = 0.3;
    p.branchFrac = 0.2;
    EXPECT_EXIT(SyntheticStream(p, 1), testing::ExitedWithCode(1),
                "exceed");
}

TEST(SyntheticStream, AllSpecProfilesGenerate)
{
    for (const AppProfile &p : spec2000Profiles()) {
        SyntheticStream s(p, 42);
        for (int i = 0; i < 2000; ++i)
            (void)s.next();
        SUCCEED() << p.name;
    }
}

TEST(SyntheticStream, MemPhasesClusterColdAccesses)
{
    // With phasing on, cold accesses bunch into memory phases: the
    // gap distribution between consecutive cold accesses is bimodal
    // (short inside a phase, long across the compute phase), unlike
    // the stationary stream — and the long-run cold fraction holds.
    AppProfile p = basicProfile();
    p.memPhaseFrac = 0.3;
    p.phasePeriod = 500;
    SyntheticStream s(p, 42);
    int mem = 0, cold = 0, long_gaps = 0, gaps = 0;
    std::uint64_t idx = 0, last_cold = 0;
    bool seen_cold = false;
    for (int i = 0; i < 300000; ++i, ++idx) {
        const MicroOp op = s.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        ++mem;
        if (op.effAddr >= SyntheticStream::kColdBase) {
            ++cold;
            if (seen_cold) {
                ++gaps;
                if (idx - last_cold >
                    static_cast<std::uint64_t>(
                        (1.0 - p.memPhaseFrac) * p.phasePeriod)) {
                    ++long_gaps;
                }
            }
            last_cold = idx;
            seen_cold = true;
        }
    }
    // Long-run cold fraction preserved despite the clustering.
    EXPECT_NEAR(cold / double(mem), p.coldFrac, 0.05);
    // Phase gaps exist but are a minority of inter-access gaps.
    EXPECT_GT(long_gaps, 100);
    EXPECT_LT(long_gaps, gaps / 2);
}

} // namespace
} // namespace smtdram
