/**
 * @file
 * Property-based tests of the rowhammer disturbance model across all
 * six scheduling policies: default-off bit-identity (inert hammer
 * knobs with aggressive values are indistinguishable from a config
 * that never heard of the model, even with faults and ECC drawing
 * from their RNG streams), and exactly-once conservation of the
 * preventive-refresh maintenance traffic under a double-sided attack
 * with the checker enabled.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hh"
#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

std::string
caseName(const testing::TestParamInfo<SchedulerKind> &info)
{
    std::string name = schedulerName(info.param);
    std::erase(name, '-');
    return name;
}

class HammerProperty : public testing::TestWithParam<SchedulerKind>
{
};

/**
 * Inert-knob bit-identity: with `enabled` false, every other hammer
 * knob may hold an absurd value without perturbing completion times,
 * bus occupancy, energy, or the fault/ECC RNG streams.  This is the
 * off-by-default discipline the golden figures pin globally,
 * exercised per scheduler with fault injection live so a stray RNG
 * draw from the hammer path would desynchronize the streams and fail
 * loudly.
 */
TEST_P(HammerProperty, DisabledHammerIsBitIdentical)
{
    auto run = [&](const DramConfig &c) {
        DramSystem dram(c, GetParam());
        Rng rng(91);
        std::uint64_t delivered = 0;
        Cycle last_completion = 0;
        std::uint64_t corrected = 0;
        dram.setReadCallback([&](const DramRequest &req) {
            ++delivered;
            last_completion = req.completion;
            corrected += req.corrected ? 1 : 0;
        });
        Cycle now = 0;
        while (delivered < 300) {
            ++now;
            if (rng.chance(0.35)) {
                const Addr addr = rng.below(1ULL << 26) & ~Addr{63};
                if (dram.canAccept(addr, MemOp::Read)) {
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(4)),
                        ThreadSnapshot{}, now);
                }
            }
            dram.tick(now);
        }
        dram.syncPower(now);
        return std::tuple{last_completion,
                          dram.aggregateStats().busBusyCycles,
                          dram.aggregatePowerStats().totalEnergy,
                          corrected};
    };

    DramConfig plain = DramConfig::ddrSdram(2).withRefresh(2'000, 60);
    plain.faults.enabled = true;
    plain.faults.seed = 5;
    plain.faults.readErrorProbability = 0.02;
    plain.faults.enqueueDelayProbability = 0.05;
    plain.faults.enqueueDelayMax = 40;
    plain.ecc.enabled = true;
    plain.ecc.correctableProbability = 0.05;
    plain.ecc.scrubInterval = 1'500;

    DramConfig inert = plain;
    inert.hammer.enabled = false;  // the only knob that matters
    inert.hammer.seed = 999;
    inert.hammer.hammerThreshold = 1;
    inert.hammer.flipProbability = 1.0;
    inert.hammer.blastRadius = 8;
    inert.hammer.trackerCapacity = 1;
    inert.hammer.mitigationThreshold = 1;

    EXPECT_EQ(run(plain), run(inert));
}

/**
 * Conservation under attack: a double-sided hammer storm with
 * mitigation on must deliver every demand read exactly once, issue
 * preventive refreshes that never surface as data, and drain clean
 * under the conservation checker — on every scheduler.
 */
TEST_P(HammerProperty, MitigationTrafficConservesUnderAttack)
{
    // Window sizing: a row-conflict read costs ~167 cycles on the
    // 1-channel system, so a 5'000-cycle refresh window would wipe
    // the tracker before any row accumulates a two-digit count; a
    // 50'000-cycle window leaves ~150 activations per row per window.
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(50'000, 120);
    c.checkerEnabled = true;
    c.withHammer(/*threshold=*/128, /*flip_probability=*/1.0);
    c.withHammerMitigation(/*tracker_capacity=*/8,
                           /*mitigation_threshold=*/4);

    DramSystem dram(c, GetParam());
    std::uint64_t delivered = 0;
    dram.setReadCallback([&](const DramRequest &) { ++delivered; });

    // Same-bank adjacent rows sit channels*banks*rowBytes apart under
    // the default PageInterleave mapping; alternate the two rows
    // around one victim with one read in flight at a time, so every
    // access is a row conflict — and an activation — regardless of
    // how the scheduler would batch a deeper queue (hit-first turns
    // queued same-row reads into hits, thinning the ACT stream ~80x).
    const Addr stride = static_cast<Addr>(c.logicalChannels()) *
                        c.banksPerChannel() * c.effectiveRowBytes();
    constexpr std::uint64_t kReads = 600;
    std::uint64_t injected = 0;
    Cycle now = 0;
    while (delivered < kReads) {
        ++now;
        ASSERT_LT(now, 3'000'000u) << "attack traffic did not drain";
        if (injected < kReads && injected == delivered) {
            const Addr addr =
                (injected % 2 ? 100u : 102u) * stride +
                (injected % 64) * 64;
            if (dram.canAccept(addr, MemOp::Read)) {
                dram.enqueueRead(addr, 0, ThreadSnapshot{}, now);
                ++injected;
            }
        }
        dram.tick(now);
    }
    while (dram.busy())
        dram.tick(++now);
    dram.syncPower(now);

    EXPECT_EQ(delivered, kReads);
    ASSERT_NE(dram.checker(), nullptr);
    dram.checker()->verifyDrained();

    const HammerStats h = dram.aggregateHammerStats();
    EXPECT_GT(h.activations, 0u);
    EXPECT_GT(h.mitigationsRequested, 0u);
    EXPECT_GT(h.mitigationsIssued, 0u);
    // The tracker undercuts the hammer threshold 8x: the victim is
    // always refreshed before pressure accumulates, so the storm
    // lands no flips even at flip probability 1.
    EXPECT_EQ(h.victimFlips, 0u);
    EXPECT_GT(dram.aggregatePowerStats().mitigationEnergy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, HammerProperty,
    testing::Values(SchedulerKind::Fcfs, SchedulerKind::HitFirst,
                    SchedulerKind::AgeBased,
                    SchedulerKind::RequestBased,
                    SchedulerKind::RobBased, SchedulerKind::IqBased,
                    SchedulerKind::CriticalityBased),
    caseName);

} // namespace
} // namespace smtdram
