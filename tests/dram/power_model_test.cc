/**
 * @file
 * Unit tests of the DRAM power/energy subsystem: datasheet energy
 * math, per-component attribution, PowerConfig validation, the lazy
 * per-rank low-power state machine, and its interaction with
 * auto-refresh (self-refresh suppression, powerdown wake).
 */

#include <gtest/gtest.h>

#include <vector>

#include "dram/dram_config.hh"
#include "dram/memory_controller.hh"
#include "dram/power_model.hh"

namespace smtdram
{
namespace
{

DramConfig
powerConfig()
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.enabled = true;
    c.validate();
    return c;
}

// --- energy math -----------------------------------------------------

TEST(PowerModel, EnergyPerCycleMatchesHandCalc)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    // E = VDD * I / f: 2.6 V * 45 mA / 3000 MHz = 0.039 nJ/cycle.
    EXPECT_DOUBLE_EQ(m.energyPerCycleNj(45.0),
                     c.power.vdd * 45.0 / c.timing.cpuMhz);
    EXPECT_DOUBLE_EQ(m.energyPerCycleNj(0.0), 0.0);
}

TEST(PowerModel, RowHitReadCostsOnlyTheBurst)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, /*is_write=*/false, /*scrub=*/false,
                  /*row_hit=*/true, /*bank_was_idle=*/false,
                  /*busy_until=*/0);
    const PowerStats &s = m.stats();
    const double expect = m.energyPerCycleNj(c.power.idd4r -
                                             c.power.idd3n) *
                          c.burstCycles();
    EXPECT_DOUBLE_EQ(s.readEnergy, expect);
    EXPECT_DOUBLE_EQ(s.activateEnergy, 0.0);
    EXPECT_DOUBLE_EQ(s.totalEnergy, s.componentEnergy());
    EXPECT_DOUBLE_EQ(m.rankEnergy(0), s.totalEnergy);
}

TEST(PowerModel, RowEmptyAddsActivateButNoPrecharge)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, false, false, /*row_hit=*/false,
                  /*bank_was_idle=*/true, /*busy_until=*/0);
    const double act = m.energyPerCycleNj(c.power.idd0 -
                                          c.power.idd3n) *
                       c.timing.rowAccess;
    EXPECT_DOUBLE_EQ(m.stats().activateEnergy, act);
}

TEST(PowerModel, RowConflictAddsActivateAndPrecharge)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, false, false, /*row_hit=*/false,
                  /*bank_was_idle=*/false, /*busy_until=*/0);
    const double act = m.energyPerCycleNj(c.power.idd0 -
                                          c.power.idd3n) *
                       c.timing.rowAccess;
    const double pre = m.energyPerCycleNj(c.power.idd0 -
                                          c.power.idd2n) *
                       c.timing.precharge;
    EXPECT_DOUBLE_EQ(m.stats().activateEnergy, act + pre);
}

TEST(PowerModel, WritesAndScrubsAttributeToTheirComponents)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, /*is_write=*/true, /*scrub=*/false,
                  /*row_hit=*/true, false, /*busy_until=*/0);
    EXPECT_GT(m.stats().writeEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.stats().readEnergy, 0.0);

    const double before = m.stats().totalEnergy;
    m.meterAccess(0, false, /*scrub=*/true, /*row_hit=*/false,
                  /*bank_was_idle=*/false, /*busy_until=*/0);
    // Scrub traffic books its ACT/PRE and burst under scrubEnergy so
    // demand components keep their meaning.
    EXPECT_GT(m.stats().scrubEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.stats().activateEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.stats().totalEnergy,
                     before + m.stats().scrubEnergy);
    EXPECT_DOUBLE_EQ(m.stats().totalEnergy,
                     m.stats().componentEnergy());
}

TEST(PowerModel, RefreshEnergyUsesTrfc)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh();
    PowerModel m(c);
    m.meterRefresh(0, /*busy_until=*/0);
    const double expect = m.energyPerCycleNj(c.power.idd5 -
                                             c.power.idd3n) *
                          c.timing.refreshCycles;
    EXPECT_DOUBLE_EQ(m.stats().refreshEnergy, expect);
}

TEST(PowerModel, BackgroundEnergyOrdersByStateDepth)
{
    // An idle rank slides down the whole ladder; syncing at each
    // threshold isolates the background energy of one state.
    const DramConfig c = powerConfig();
    const PowerConfig &p = c.power;
    PowerModel m(c);
    ASSERT_EQ(m.ranks(), 1u);
    auto per_kcycle = [&m](Cycle from, Cycle to) {
        const double before = m.stats().backgroundEnergy;
        m.sync(to);
        return (m.stats().backgroundEnergy - before) * 1000.0 /
               static_cast<double>(to - from);
    };
    const double active = per_kcycle(0, p.powerdownIdle);
    const double pdf = per_kcycle(p.powerdownIdle, p.slowExitIdle);
    const double pds = per_kcycle(p.slowExitIdle, p.selfRefreshIdle);
    const double sr =
        per_kcycle(p.selfRefreshIdle, p.selfRefreshIdle + 1000);
    EXPECT_GT(active, pdf);
    EXPECT_GT(pdf, pds);
    EXPECT_GT(pds, sr);
    EXPECT_EQ(m.stats().selfRefreshCycles, 1000u);
}

TEST(PowerModel, ResetZeroesEverything)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, false, false, false, false, /*busy_until=*/10);
    m.sync(10);
    m.reset(10);
    EXPECT_DOUBLE_EQ(m.stats().totalEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.rankEnergy(0), 0.0);
    EXPECT_EQ(m.stats().activeCycles, 0u);
    // Accounting restarts at the boundary, not at cycle 0.
    m.sync(25);
    EXPECT_EQ(m.stats().activeCycles, 15u * m.ranks());
}

// --- PowerConfig validation ------------------------------------------

TEST(PowerConfigDeathTest, NegativeVddRejected)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.vdd = -1.0;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "supply voltage");
}

TEST(PowerConfigDeathTest, Idd0BelowStandbyRejected)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.idd0 = 10.0;  // below idd3n = 45
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "IDD0");
}

TEST(PowerConfigDeathTest, SelfRefreshAboveSlowPowerdownRejected)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.idd6 = 100.0;  // above idd2p = 7
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "deepest state");
}

TEST(PowerConfigDeathTest, NonMonotoneThresholdsRejected)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.enabled = true;
    c.power.powerdownIdle = 2048;  // >= slowExitIdle = 1024
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "strictly deepen");
}

TEST(PowerConfigDeathTest, FreeExitRejected)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.enabled = true;
    c.power.exitFast = 0;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "cannot be 0");
}

TEST(PowerConfigDeathTest, ElectricalKnobsValidateEvenWhenDisabled)
{
    DramConfig c = DramConfig::ddrSdram(1);
    ASSERT_FALSE(c.power.enabled);
    c.power.idd4r = 1.0;  // below active standby: nonsense datasheet
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "burst currents");
}

// --- lazy state machine ----------------------------------------------

TEST(RankPowerManager, StateFollowsIdleThresholds)
{
    const DramConfig c = powerConfig();
    PowerModel m(c);
    m.meterRefresh(0, /*busy_until=*/100);

    EXPECT_EQ(m.stateAt(0, 50), PowerState::Active);  // still busy
    EXPECT_EQ(m.stateAt(0, 100 + c.power.powerdownIdle - 1),
              PowerState::Active);
    EXPECT_EQ(m.stateAt(0, 100 + c.power.powerdownIdle),
              PowerState::PowerdownFast);
    EXPECT_EQ(m.stateAt(0, 100 + c.power.slowExitIdle),
              PowerState::PowerdownSlow);
    EXPECT_EQ(m.stateAt(0, 100 + c.power.selfRefreshIdle),
              PowerState::SelfRefresh);
}

TEST(RankPowerManager, DisabledMachineNeverLeavesActive)
{
    DramConfig c = DramConfig::ddrSdram(1);
    ASSERT_FALSE(c.power.active());
    PowerModel m(c);
    EXPECT_EQ(m.stateAt(0, 1'000'000), PowerState::Active);
    const WakeResult w = m.wake(0, 1'000'000, /*open_rows=*/0, nullptr);
    EXPECT_EQ(w.penalty, 0u);
    EXPECT_EQ(w.from, PowerState::Active);
    EXPECT_EQ(m.stats().powerdownEntries, 0u);
}

TEST(RankPowerManager, WakePenaltiesMatchTheStateLeft)
{
    const DramConfig c = powerConfig();
    PowerModel m(c);

    // Wake out of fast powerdown.
    WakeResult w = m.wake(0, c.power.powerdownIdle + 10,
                          /*open_rows=*/0, nullptr);
    EXPECT_EQ(w.from, PowerState::PowerdownFast);
    EXPECT_EQ(w.penalty, c.power.exitFast);

    // The wake re-anchored busyUntil; idle long enough for SR now.
    const Cycle busy = m.busyUntil(0);
    w = m.wake(0, busy + c.power.selfRefreshIdle + 5, /*open_rows=*/0,
               nullptr);
    EXPECT_EQ(w.from, PowerState::SelfRefresh);
    EXPECT_EQ(w.penalty, c.power.exitSelfRefresh);

    EXPECT_EQ(m.stats().powerdownEntries, 2u);
    EXPECT_EQ(m.stats().selfRefreshEntries, 1u);
    EXPECT_EQ(m.stats().exitPenaltyCycles,
              c.power.exitFast + c.power.exitSelfRefresh);
    EXPECT_EQ(m.stats().lowPowerSpanHist.total(), 2u);
}

TEST(RankPowerManager, ResidencyConservesElapsedRankCycles)
{
    const DramConfig c = powerConfig();
    PowerModel m(c);
    ASSERT_EQ(m.ranks(), 1u);

    // One long idle window crossing every threshold, split across
    // several syncs: the pieces must tile the window exactly.
    const Cycle horizon = c.power.selfRefreshIdle + 10'000;
    m.sync(100);
    m.sync(c.power.slowExitIdle / 2);
    m.sync(c.power.selfRefreshIdle + 1);
    m.sync(horizon);

    const PowerStats &s = m.stats();
    EXPECT_EQ(s.activeCycles + s.powerdownFastCycles +
                  s.powerdownSlowCycles + s.selfRefreshCycles,
              horizon);
    EXPECT_EQ(s.activeCycles, c.power.powerdownIdle);
    EXPECT_EQ(s.powerdownFastCycles,
              c.power.slowExitIdle - c.power.powerdownIdle);
    EXPECT_EQ(s.powerdownSlowCycles,
              c.power.selfRefreshIdle - c.power.slowExitIdle);
    EXPECT_EQ(s.selfRefreshCycles,
              horizon - c.power.selfRefreshIdle);
    EXPECT_DOUBLE_EQ(s.totalEnergy, s.componentEnergy());
}

TEST(RankPowerManager, SyncIsSplitInvariant)
{
    const DramConfig c = powerConfig();
    const Cycle horizon = c.power.selfRefreshIdle + 4321;

    PowerModel one_shot(c);
    one_shot.sync(horizon);

    PowerModel pieces(c);
    for (Cycle at = 97; at < horizon; at += 997)
        pieces.sync(at);
    pieces.sync(horizon);

    // Piecewise double summation is not ULP-identical; the invariant
    // is that the split changes nothing material.
    EXPECT_NEAR(one_shot.stats().backgroundEnergy,
                pieces.stats().backgroundEnergy, 1e-6);
    EXPECT_EQ(one_shot.stats().selfRefreshCycles,
              pieces.stats().selfRefreshCycles);
}

// --- controller integration: refresh interplay -----------------------

/** Drive an idle controller to cycle @p until. */
void
tickTo(MemoryController &mc, Cycle from, Cycle until)
{
    std::vector<DramRequest> done;
    for (Cycle t = from; t <= until; ++t)
        mc.tick(t, done);
}

TEST(PowerRefreshInteraction, SelfRefreshSuppressesTrefiDeadlines)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(2'000, 100);
    c.power.enabled = true;
    // Reach self-refresh quickly, well inside one tREFI.
    c.power.powerdownIdle = 50;
    c.power.slowExitIdle = 100;
    c.power.selfRefreshIdle = 200;
    c.validate();

    MemoryController mc(c, SchedulerKind::HitFirst, 0);
    // No traffic at all: every rank slides into self-refresh before
    // the first refresh deadline, so the controller must absorb all
    // of them instead of issuing refreshes.
    tickTo(mc, 1, 10'000);
    EXPECT_EQ(mc.stats().refreshes, 0u);
    EXPECT_GT(mc.powerStats().refreshesSuppressed, 0u);
    EXPECT_EQ(mc.rankPowerState(0, 10'000), PowerState::SelfRefresh);
}

TEST(PowerRefreshInteraction, PowerdownRankWakesToRefresh)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(2'000, 100);
    c.power.enabled = true;
    c.power.powerdownIdle = 50;
    c.power.slowExitIdle = 100;
    // Unreachable self-refresh: the rank parks in slow powerdown.
    c.power.selfRefreshIdle = 1'000'000;
    c.validate();

    MemoryController mc(c, SchedulerKind::HitFirst, 0);
    tickTo(mc, 1, 10'000);
    // Refreshes still happen — each one wakes the powered-down rank
    // and charges the exit latency.
    EXPECT_GT(mc.stats().refreshes, 0u);
    EXPECT_EQ(mc.powerStats().refreshesSuppressed, 0u);
    EXPECT_GT(mc.powerStats().powerdownEntries, 0u);
    EXPECT_GT(mc.powerStats().exitPenaltyCycles, 0u);
}

TEST(PowerRefreshInteraction, AccessAfterSelfRefreshRestartsTrefi)
{
    DramConfig c = DramConfig::ddrSdram(1).withRefresh(2'000, 100);
    c.power.enabled = true;
    c.power.powerdownIdle = 50;
    c.power.slowExitIdle = 100;
    c.power.selfRefreshIdle = 200;
    c.validate();

    MemoryController mc(c, SchedulerKind::HitFirst, 0);
    tickTo(mc, 1, 5'000);
    ASSERT_EQ(mc.rankPowerState(0, 5'000), PowerState::SelfRefresh);

    // A demand read wakes the rank out of self-refresh...
    DramRequest req;
    req.id = 1;
    req.kind = RequestKind::Read;
    req.addr = 0;
    req.coord = {0, 0, 0, 0};
    req.arrival = 5'001;
    mc.enqueue(req);
    std::vector<DramRequest> done;
    Cycle now = 5'001;
    while (done.empty())
        mc.tick(++now, done);

    EXPECT_EQ(mc.powerStats().selfRefreshEntries, 1u);
    // ...and pays tXSNR: a cold read normally takes row + column +
    // burst + overhead; this one took at least exitSelfRefresh more.
    const Cycle plain = c.timing.rowAccess + c.timing.columnAccess +
                        c.burstCycles() + c.timing.controllerOverhead;
    EXPECT_GE(done.front().completion - done.front().arrival,
              plain + c.power.exitSelfRefresh);
    EXPECT_EQ(mc.rankPowerState(0, now), PowerState::Active);
}

} // namespace
} // namespace smtdram
