/**
 * @file
 * Property-based tests of the DRAM energy/power subsystem across all
 * six scheduling policies under a hostile configuration (faults, ECC
 * with patrol scrub, auto-refresh, low-power machine, conservation
 * checker): energy conservation (the lockstep running total equals the
 * component sum and the per-rank attribution), state-residency
 * conservation (the four states tile every rank-cycle), and
 * default-off equivalence (a disabled PowerConfig with aggressive knob
 * values is indistinguishable from a config that never heard of it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/random.hh"
#include "dram/dram_system.hh"

namespace smtdram
{
namespace
{

/** gtest has no printer for this type, so it writes the raw bytes into
 *  each test's name: the padding is spelled out and zeroed, or it would
 *  carry stack garbage and the name would change from build to build. */
struct PowerCase {
    PowerCase(SchedulerKind s, std::uint64_t sd) : scheduler(s), seed(sd) {}
    SchedulerKind scheduler;
    std::uint8_t padding[7] = {};
    std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PowerCase>);

std::string
caseName(const testing::TestParamInfo<PowerCase> &info)
{
    std::string name = schedulerName(info.param.scheduler);
    std::erase(name, '-');
    return name + "_seed" + std::to_string(info.param.seed);
}

class PowerProperty : public testing::TestWithParam<PowerCase>
{
  protected:
    /** Everything on at once: the power accounting must conserve even
     *  while faults retry reads, scrub injects background traffic,
     *  refresh steals banks, and ranks bounce through low-power
     *  states. */
    DramConfig
    config() const
    {
        DramConfig c = DramConfig::ddrSdram(2).withRefresh(2'000, 60);
        c.checkerEnabled = true;
        c.ecc.enabled = true;
        c.ecc.correctableProbability = 0.05;
        c.ecc.uncorrectableProbability = 0.01;
        c.ecc.scrubInterval = 1'500;
        c.ecc.scrubBurst = 2;
        c.faults.enabled = true;
        c.faults.seed = GetParam().seed;
        c.faults.readErrorProbability = 0.02;
        c.faults.enqueueDelayProbability = 0.05;
        c.faults.enqueueDelayMax = 40;
        // Tight thresholds so bursty traffic actually exercises every
        // state and exit path within a short run.
        c.power.enabled = true;
        c.power.powerdownIdle = 64;
        c.power.slowExitIdle = 256;
        c.power.selfRefreshIdle = 1'024;
        return c;
    }
};

TEST_P(PowerProperty, EnergyConservesUnderHostileTraffic)
{
    const DramConfig c = config();
    DramSystem dram(c, GetParam().scheduler);
    Rng rng(GetParam().seed * 104'729 + 3);

    std::uint64_t delivered = 0;
    dram.setReadCallback([&](const DramRequest &) { ++delivered; });

    constexpr std::uint64_t kReads = 500;
    std::uint64_t injected = 0;
    Cycle now = 0;
    while (delivered < kReads) {
        ++now;
        ASSERT_LT(now, 3'000'000u) << "demand storm did not drain";
        // Bursty arrivals with long gaps so ranks really do fall into
        // powerdown and self-refresh between bursts.
        if (injected < kReads && rng.chance(0.3)) {
            const std::uint64_t burst =
                std::min<std::uint64_t>(1 + rng.below(6),
                                        kReads - injected);
            for (std::uint64_t i = 0; i < burst; ++i) {
                const Addr addr = rng.below(1ULL << 27) & ~Addr{63};
                if (!dram.canAccept(addr, MemOp::Read))
                    break;
                dram.enqueueRead(addr,
                                 static_cast<ThreadId>(rng.below(4)),
                                 ThreadSnapshot{}, now);
                ++injected;
            }
            // Idle gap long enough to cross any threshold sometimes.
            now += rng.below(2'500);
        }
        dram.tick(now);
    }
    while (dram.busy())
        dram.tick(++now);
    dram.syncPower(now);

    const PowerStats s = dram.aggregatePowerStats();

    // Conservation #1: the running total kept in lockstep with every
    // component add equals the component sum (FP tolerance only).
    EXPECT_GT(s.totalEnergy, 0.0);
    EXPECT_NEAR(s.totalEnergy, s.componentEnergy(),
                1e-9 * s.totalEnergy);

    // Conservation #2: per-rank attribution tiles the total.
    double rank_sum = 0.0;
    for (std::uint32_t ch = 0; ch < c.logicalChannels(); ++ch) {
        const MemoryController &mc = dram.channel(ch);
        for (std::uint32_t r = 0; r < mc.powerRanks(); ++r)
            rank_sum += mc.rankEnergy(r);
    }
    EXPECT_NEAR(rank_sum, s.totalEnergy, 1e-9 * s.totalEnergy);

    // Conservation #3: the four states tile every rank-cycle of every
    // channel exactly — no cycle lost or double-counted across wakes,
    // refreshes, and syncs.
    const std::uint64_t rank_cycles =
        static_cast<std::uint64_t>(c.logicalChannels()) *
        dram.channel(0).powerRanks() * now;
    EXPECT_EQ(s.activeCycles + s.powerdownFastCycles +
                  s.powerdownSlowCycles + s.selfRefreshCycles,
              rank_cycles);

    // The hostile run really exercised the machine: every energy
    // component is live and low-power episodes happened.
    EXPECT_GT(s.backgroundEnergy, 0.0);
    EXPECT_GT(s.activateEnergy, 0.0);
    EXPECT_GT(s.readEnergy, 0.0);
    EXPECT_GT(s.refreshEnergy, 0.0);
    EXPECT_GT(s.scrubEnergy, 0.0);
    EXPECT_GT(s.powerdownEntries, 0u);
    EXPECT_EQ(s.lowPowerSpanHist.total(), s.powerdownEntries);

    // Exactly-once delivery survived the power machine.
    EXPECT_EQ(delivered, kReads);
    ASSERT_NE(dram.checker(), nullptr);
    dram.checker()->verifyDrained();
}

/**
 * Default-off equivalence: with the state machine disabled, a run must
 * be indistinguishable from one on a config that never heard of the
 * power subsystem — identical completion times and bus stats — even
 * when the (inert) electrical and threshold knobs are set to absurd
 * values.  This is the same guarantee the golden figures pin, but
 * exercised per scheduler with adversarial knob settings.
 */
TEST_P(PowerProperty, DisabledPowerIsBitIdentical)
{
    double last_energy = 0.0;
    auto run = [&](const DramConfig &c) {
        DramSystem dram(c, GetParam().scheduler);
        Rng rng(GetParam().seed + 29);
        std::uint64_t delivered = 0;
        Cycle last_completion = 0;
        dram.setReadCallback([&](const DramRequest &req) {
            ++delivered;
            last_completion = req.completion;
        });
        Cycle now = 0;
        while (delivered < 200) {
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
        last_energy = dram.aggregatePowerStats().totalEnergy;
        return std::pair{last_completion,
                         dram.aggregateStats().busBusyCycles};
    };

    DramConfig plain = DramConfig::ddrSdram(2).withRefresh(2'000, 60);
    plain.faults.seed = GetParam().seed;

    DramConfig inert = plain;
    inert.power.enabled = false;  // the only knob that matters
    inert.power.vdd = 12.0;
    inert.power.idd0 = 900.0;
    inert.power.idd4r = 800.0;
    inert.power.idd4w = 750.0;
    inert.power.idd5 = 999.0;
    inert.power.powerdownIdle = 1;
    inert.power.slowExitIdle = 2;
    inert.power.selfRefreshIdle = 3;
    inert.power.exitFast = 10'000;
    inert.power.exitSlow = 20'000;
    inert.power.exitSelfRefresh = 30'000;

    const auto plain_result = run(plain);
    const double plain_energy = last_energy;
    const auto inert_result = run(inert);
    const double inert_energy = last_energy;

    EXPECT_EQ(plain_result, inert_result);

    // The always-on meter still ran in both — and the absurd currents
    // metered strictly more energy — without changing the timing.
    EXPECT_GT(plain_energy, 0.0);
    EXPECT_GT(inert_energy, plain_energy);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PowerProperty,
    testing::Values(PowerCase{SchedulerKind::Fcfs, 1},
                    PowerCase{SchedulerKind::HitFirst, 1},
                    PowerCase{SchedulerKind::AgeBased, 1},
                    PowerCase{SchedulerKind::RequestBased, 1},
                    PowerCase{SchedulerKind::RobBased, 1},
                    PowerCase{SchedulerKind::IqBased, 1},
                    PowerCase{SchedulerKind::CriticalityBased, 1},
                    PowerCase{SchedulerKind::HitFirst, 2},
                    PowerCase{SchedulerKind::Fcfs, 3}),
    caseName);

} // namespace
} // namespace smtdram
