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
#include "dram/power_state.hh"

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
                  /*row_hit=*/true, /*bank_was_idle=*/false);
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
                  /*bank_was_idle=*/true);
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
                  /*bank_was_idle=*/false);
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
                  /*row_hit=*/true, false);
    EXPECT_GT(m.stats().writeEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.stats().readEnergy, 0.0);

    const double before = m.stats().totalEnergy;
    m.meterAccess(0, false, /*scrub=*/true, /*row_hit=*/false,
                  /*bank_was_idle=*/false);
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
    m.meterRefresh(0);
    const double expect = m.energyPerCycleNj(c.power.idd5 -
                                             c.power.idd3n) *
                          c.timing.refreshCycles;
    EXPECT_DOUBLE_EQ(m.stats().refreshEnergy, expect);
}

TEST(PowerModel, BackgroundEnergyOrdersByStateDepth)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel active(c), pdf(c), pds(c), sr(c);
    active.meterBackground(0, PowerState::Active, 1000);
    pdf.meterBackground(0, PowerState::PowerdownFast, 1000);
    pds.meterBackground(0, PowerState::PowerdownSlow, 1000);
    sr.meterBackground(0, PowerState::SelfRefresh, 1000);
    EXPECT_GT(active.stats().backgroundEnergy,
              pdf.stats().backgroundEnergy);
    EXPECT_GT(pdf.stats().backgroundEnergy,
              pds.stats().backgroundEnergy);
    EXPECT_GT(pds.stats().backgroundEnergy,
              sr.stats().backgroundEnergy);
    EXPECT_EQ(sr.stats().selfRefreshCycles, 1000u);
}

TEST(PowerModel, ResetZeroesEverything)
{
    const DramConfig c = DramConfig::ddrSdram(1);
    PowerModel m(c);
    m.meterAccess(0, false, false, false, false);
    m.meterBackground(0, PowerState::Active, 10);
    m.reset();
    EXPECT_DOUBLE_EQ(m.stats().totalEnergy, 0.0);
    EXPECT_DOUBLE_EQ(m.rankEnergy(0), 0.0);
    EXPECT_EQ(m.stats().activeCycles, 0u);
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
    RankPowerManager rp(c, 0);
    rp.noteBusyUntil(0, 100);

    EXPECT_EQ(rp.stateAt(0, 50), PowerState::Active);  // still busy
    EXPECT_EQ(rp.stateAt(0, 100 + c.power.powerdownIdle - 1),
              PowerState::Active);
    EXPECT_EQ(rp.stateAt(0, 100 + c.power.powerdownIdle),
              PowerState::PowerdownFast);
    EXPECT_EQ(rp.stateAt(0, 100 + c.power.slowExitIdle),
              PowerState::PowerdownSlow);
    EXPECT_EQ(rp.stateAt(0, 100 + c.power.selfRefreshIdle),
              PowerState::SelfRefresh);
}

TEST(RankPowerManager, DisabledMachineNeverLeavesActive)
{
    DramConfig c = DramConfig::ddrSdram(1);
    ASSERT_FALSE(c.power.active());
    RankPowerManager rp(c, 0);
    PowerModel m(c);
    EXPECT_EQ(rp.stateAt(0, 1'000'000), PowerState::Active);
    const WakeResult w = rp.wake(0, 1'000'000, m, nullptr);
    EXPECT_EQ(w.penalty, 0u);
    EXPECT_EQ(w.from, PowerState::Active);
    EXPECT_EQ(m.stats().powerdownEntries, 0u);
}

TEST(RankPowerManager, WakePenaltiesMatchTheStateLeft)
{
    const DramConfig c = powerConfig();
    PowerModel m(c);
    RankPowerManager rp(c, 0);

    // Wake out of fast powerdown.
    WakeResult w =
        rp.wake(0, c.power.powerdownIdle + 10, m, nullptr);
    EXPECT_EQ(w.from, PowerState::PowerdownFast);
    EXPECT_EQ(w.penalty, c.power.exitFast);

    // The wake re-anchored busyUntil; idle long enough for SR now.
    const Cycle busy = rp.busyUntil(0);
    w = rp.wake(0, busy + c.power.selfRefreshIdle + 5, m, nullptr);
    EXPECT_EQ(w.from, PowerState::SelfRefresh);
    EXPECT_EQ(w.penalty, c.power.exitSelfRefresh);

    EXPECT_EQ(m.stats().powerdownEntries, 2u);
    EXPECT_EQ(m.stats().powerdownExits, 2u);
    EXPECT_EQ(m.stats().selfRefreshEntries, 1u);
    EXPECT_EQ(m.stats().exitPenaltyCycles,
              c.power.exitFast + c.power.exitSelfRefresh);
    EXPECT_EQ(m.stats().lowPowerSpanHist.total(), 2u);
}

TEST(RankPowerManager, ResidencyConservesElapsedRankCycles)
{
    const DramConfig c = powerConfig();
    PowerModel m(c);
    RankPowerManager rp(c, 0);
    ASSERT_EQ(rp.ranks(), 1u);

    // One long idle window crossing every threshold, split across
    // several syncs: the pieces must tile the window exactly.
    const Cycle horizon = c.power.selfRefreshIdle + 10'000;
    rp.sync(100, m);
    rp.sync(c.power.slowExitIdle / 2, m);
    rp.sync(c.power.selfRefreshIdle + 1, m);
    rp.sync(horizon, m);

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
    RankPowerManager rp1(c, 0);
    rp1.sync(horizon, one_shot);

    PowerModel pieces(c);
    RankPowerManager rp2(c, 0);
    for (Cycle at = 97; at < horizon; at += 997)
        rp2.sync(at, pieces);
    rp2.sync(horizon, pieces);

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

    EXPECT_EQ(mc.powerStats().selfRefreshExits, 1u);
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
