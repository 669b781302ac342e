/**
 * @file
 * Unit tests of the rowhammer disturbance model and Graphene-style
 * Misra-Gries aggressor tracker, plus controller-level tests of the
 * victim-read ECC outcomes and the preventive-refresh command flow.
 */

#include <gtest/gtest.h>

#include "dram/fault_injector.hh"
#include "dram/memory_controller.hh"
#include "dram/row_hammer.hh"

namespace smtdram
{
namespace
{

HammerConfig
hammerOn(std::uint64_t threshold, double flip_probability = 1.0)
{
    HammerConfig h;
    h.enabled = true;
    h.hammerThreshold = threshold;
    h.flipProbability = flip_probability;
    return h;
}

FaultInjector
injectorFor(const HammerConfig &h)
{
    return FaultInjector(FaultConfig{}, EccConfig{}, h, /*channel=*/0);
}

/** Hammer rows `victim +/- 1` alternately, @p acts activations total. */
void
doubleSided(RowHammerModel &model, FaultInjector &inj,
            std::uint32_t bank, std::uint32_t victim,
            std::uint64_t acts,
            std::vector<MitigationRequest> *out = nullptr)
{
    std::vector<MitigationRequest> scratch;
    for (std::uint64_t i = 0; i < acts; ++i) {
        model.recordActivation(bank, i % 2 ? victim + 1 : victim - 1,
                               inj, out ? *out : scratch);
    }
}

TEST(RowHammerModel, NoFlipsBelowThreshold)
{
    const HammerConfig h = hammerOn(100);
    RowHammerModel model(h, /*banks=*/4, /*rowsPerBank=*/1u << 20);
    FaultInjector inj = injectorFor(h);

    // Pressure reaches 99 — one short of the threshold.
    doubleSided(model, inj, 0, 10, 99);
    EXPECT_EQ(model.flipsOn(0, 10), 0u);
    EXPECT_EQ(model.stats().victimFlips, 0u);
    EXPECT_EQ(model.stats().activations, 99u);
    EXPECT_EQ(model.stats().thresholdCrossings, 0u);
}

TEST(RowHammerModel, FlipsMonotoneInActivationCount)
{
    // flipProbability 1.0 makes every post-threshold trial a flip, so
    // the flip count is an exact deterministic function of the
    // activation count — strictly monotone past the threshold.
    std::uint32_t last = 0;
    for (std::uint64_t acts : {100u, 150u, 200u, 400u}) {
        const HammerConfig h = hammerOn(100);
        RowHammerModel model(h, 4, 1u << 20);
        FaultInjector inj = injectorFor(h);
        doubleSided(model, inj, 0, 10, acts);
        const std::uint32_t flips = model.flipsOn(0, 10);
        EXPECT_GE(flips, last);
        if (acts > 100) {
            EXPECT_GT(flips, last);
        }
        last = flips;
    }
}

TEST(RowHammerModel, RefreshResetsPressureButNotFlips)
{
    const HammerConfig h = hammerOn(100);
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    doubleSided(model, inj, 0, 10, 150);
    const std::uint32_t flips = model.flipsOn(0, 10);
    ASSERT_GT(flips, 0u);

    model.onBankRefresh(0);
    EXPECT_EQ(model.stats().windowResets, 1u);
    // Corruption survives the refresh...
    EXPECT_EQ(model.flipsOn(0, 10), flips);
    // ...but pressure restarts: another sub-threshold burst is safe.
    doubleSided(model, inj, 0, 10, 99);
    EXPECT_EQ(model.flipsOn(0, 10), flips);
}

TEST(RowHammerModel, BlastRadiusReachesFurtherVictims)
{
    HammerConfig h = hammerOn(50);
    h.blastRadius = 2;
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    std::vector<MitigationRequest> out;
    for (int i = 0; i < 200; ++i)
        model.recordActivation(0, 10, inj, out);
    // Rows 8, 9, 11, 12 are all within radius 2 of aggressor 10.
    EXPECT_GT(model.flipsOn(0, 8), 0u);
    EXPECT_GT(model.flipsOn(0, 9), 0u);
    EXPECT_GT(model.flipsOn(0, 11), 0u);
    EXPECT_GT(model.flipsOn(0, 12), 0u);
    EXPECT_EQ(model.flipsOn(0, 13), 0u);
}

TEST(RowHammerModel, ClearFlipsRepairsTheRow)
{
    const HammerConfig h = hammerOn(100);
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    doubleSided(model, inj, 0, 10, 200);
    ASSERT_GT(model.flipsOn(0, 10), 0u);
    // Victim 10 takes double-sided pressure; the aggressors' outer
    // neighbors (8 and 12) each take single-sided pressure of 100,
    // which also reaches the threshold at 200 total activations.
    EXPECT_EQ(model.flippedRows(), 3u);

    model.clearFlips(0, 10, /*countAsScrubbed=*/true);
    EXPECT_EQ(model.flipsOn(0, 10), 0u);
    EXPECT_EQ(model.flippedRows(), 2u);
    EXPECT_GT(model.stats().flipsScrubbed, 0u);
}

TEST(RowHammerModel, PreventiveRefreshRelievesPressure)
{
    const HammerConfig h = hammerOn(100);
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    // 90 activations (pressure 90), relieve, then 90 more: never
    // crosses the threshold of 100, so the victim stays clean —
    // without the relief the same 180 activations flip bits (see
    // FlipsMonotoneInActivationCount).
    doubleSided(model, inj, 0, 10, 90);
    model.onPreventiveRefresh(0, 10);
    doubleSided(model, inj, 0, 10, 90);
    EXPECT_EQ(model.flipsOn(0, 10), 0u);
}

TEST(RowHammerModel, TrackerRequestsNeighborRefreshesAtThreshold)
{
    HammerConfig h = hammerOn(1000);
    h.mitigation = true;
    h.trackerCapacity = 4;
    h.mitigationThreshold = 8;
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    std::vector<MitigationRequest> out;
    for (int i = 0; i < 8; ++i)
        model.recordActivation(0, 10, inj, out);
    ASSERT_EQ(out.size(), 2u);  // blastRadius 1: rows 9 and 11
    EXPECT_EQ(out[0].bank, 0u);
    EXPECT_TRUE((out[0].row == 9 && out[1].row == 11) ||
                (out[0].row == 11 && out[1].row == 9));
    EXPECT_EQ(model.stats().mitigationsRequested, 2u);

    // The entry reset on trigger: 8 more ACTs trigger a second round.
    out.clear();
    for (int i = 0; i < 8; ++i)
        model.recordActivation(0, 10, inj, out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(RowHammerModel, MisraGriesHeavyHitterCannotHide)
{
    // Misra-Gries guarantee: a row's true count is underestimated by
    // at most the spillover, so a genuinely hot aggressor must reach
    // the mitigation threshold even while a crowd of one-off rows
    // churns the (tiny) table.
    HammerConfig h = hammerOn(100'000);
    h.mitigation = true;
    h.trackerCapacity = 2;
    h.mitigationThreshold = 64;
    RowHammerModel model(h, 4, 1u << 20);
    FaultInjector inj = injectorFor(h);

    std::vector<MitigationRequest> out;
    std::uint32_t noise_row = 1000;
    for (int i = 0; i < 256 && out.empty(); ++i) {
        model.recordActivation(0, 10, inj, out);       // hot aggressor
        model.recordActivation(0, noise_row += 2, inj, out); // churn
    }
    ASSERT_FALSE(out.empty());
    for (const MitigationRequest &m : out)
        EXPECT_TRUE(m.row == 9 || m.row == 11);
    EXPECT_GT(model.stats().trackerEvictions, 0u);
}

// --- Controller-level: victim reads through the ECC path and the
// --- preventive-refresh command flow.

DramRequest
coordRead(std::uint64_t id, std::uint32_t bank, std::uint32_t row,
          Cycle arrival)
{
    DramRequest req;
    req.id = id;
    req.kind = RequestKind::Read;
    req.addr = static_cast<Addr>(id) << 6;  // unique, unused for coord
    req.thread = 0;
    req.arrival = arrival;
    req.coord = DramCoord{0, bank, row, 0};
    return req;
}

/** Alternate ACTs of rows victim±1 until @p acts issue, then drain. */
Cycle
hammerThroughController(MemoryController &mc, std::uint32_t victim,
                        std::uint64_t acts, Cycle start,
                        std::vector<DramRequest> &done)
{
    Cycle now = start;
    std::uint64_t id = 1'000'000 + start;
    for (std::uint64_t i = 0; i < acts; ++i) {
        while (!mc.canAcceptRead())
            mc.tick(++now, done);
        mc.enqueue(coordRead(id++, 0,
                             i % 2 ? victim + 1 : victim - 1, now));
    }
    while (mc.busy())
        mc.tick(++now, done);
    return now;
}

TEST(RowHammerController, VictimReadCorrectedThenUncorrectable)
{
    DramConfig config = DramConfig::ddrSdram(1);
    config.ecc.enabled = true;  // zero ambient error rates: only
                                // hammer flips reach the ECC path
    config.hammer = hammerOn(64);
    config.validate();
    MemoryController mc(config, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;

    // The 64th activation brings pressure to the threshold and runs
    // exactly one trial: one flip.  The victim read comes back
    // corrected (SECDED fixed it) and the correction writeback
    // repairs the row.
    Cycle now = hammerThroughController(mc, 100, 64, 0, done);
    ASSERT_EQ(mc.hammerStats().victimFlips, 1u);
    done.clear();
    mc.enqueue(coordRead(1, 0, 100, now));
    while (mc.busy())
        mc.tick(++now, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].corrected);
    EXPECT_FALSE(done[0].poisoned);
    EXPECT_EQ(mc.hammerStats().victimCorrected, 1u);
    EXPECT_EQ(mc.stats().correctedErrors, 1u);

    // Hammer on: many flips accumulate, and the next victim read is
    // a detected uncorrectable error delivered poisoned.
    now = hammerThroughController(mc, 100, 200, now, done);
    ASSERT_GE(mc.hammerStats().victimFlips, 3u);
    done.clear();
    mc.enqueue(coordRead(2, 0, 100, now));
    while (mc.busy())
        mc.tick(++now, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].corrected);
    EXPECT_TRUE(done[0].poisoned);
    EXPECT_EQ(mc.hammerStats().victimUncorrectable, 1u);
    EXPECT_EQ(mc.stats().uncorrectableErrors, 1u);
}

TEST(RowHammerController, WithoutEccVictimReadsAreSilentCorruption)
{
    DramConfig config = DramConfig::ddrSdram(1);
    config.hammer = hammerOn(64);
    config.validate();
    MemoryController mc(config, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = hammerThroughController(mc, 100, 200, 0, done);
    ASSERT_GT(mc.hammerStats().victimFlips, 0u);
    done.clear();
    mc.enqueue(coordRead(1, 0, 100, now));
    while (mc.busy())
        mc.tick(++now, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].corrected);
    EXPECT_FALSE(done[0].poisoned);  // nothing detects it...
    EXPECT_GT(mc.hammerStats().silentCorruptions, 0u);  // ...audited
}

TEST(RowHammerController, DataWriteRepairsTheVictimRow)
{
    DramConfig config = DramConfig::ddrSdram(1);
    config.hammer = hammerOn(64);
    config.validate();
    MemoryController mc(config, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = hammerThroughController(mc, 100, 200, 0, done);
    ASSERT_GT(mc.hammerStats().victimFlips, 0u);

    DramRequest wr = coordRead(1, 0, 100, now);
    wr.kind = RequestKind::Write;
    wr.thread = kThreadNone;
    mc.enqueue(wr);
    while (mc.busy())
        mc.tick(++now, done);
    EXPECT_EQ(mc.hammerModel().flipsOn(0, 100), 0u);
    EXPECT_GT(mc.hammerStats().flipsScrubbed, 0u);
}

TEST(RowHammerController, MitigationDrivesFlipsToZero)
{
    DramConfig unmitigated = DramConfig::ddrSdram(1);
    unmitigated.hammer = hammerOn(256);
    unmitigated.validate();
    DramConfig mitigated = unmitigated;
    mitigated.withHammerMitigation(/*tracker_capacity=*/16,
                                   /*mitigation_threshold=*/32);

    // FCFS preserves the alternating-row order, so every access is a
    // conflict and an activation.  (Hit-first would batch the queued
    // same-row requests into row hits — the open-row buffer absorbing
    // much of the hammering is itself realistic.)
    std::vector<DramRequest> done;
    MemoryController base(unmitigated, SchedulerKind::Fcfs);
    hammerThroughController(base, 100, 1000, 0, done);
    ASSERT_GT(base.hammerStats().victimFlips, 0u);

    // Same attack with the Graphene tracker on: every preventive
    // refresh relieves the victims before the threshold, so no flips
    // land, at the cost of maintenance commands and energy.
    done.clear();
    MemoryController mc(mitigated, SchedulerKind::Fcfs);
    Cycle now = 0;
    std::uint64_t id = 1;
    std::uint64_t issued = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        while (!mc.canAcceptRead())
            mc.tick(++now, done);
        mc.enqueue(coordRead(id++, 0, i % 2 ? 101 : 99, now));
        // Materialize tracker requests the way DramSystem does.
        std::vector<MitigationRequest> pending;
        mc.takePendingMitigations(pending);
        for (const MitigationRequest &m : pending) {
            DramRequest req;
            req.id = 2'000'000 + issued++;
            req.kind = RequestKind::Mitigation;
            req.thread = kThreadNone;
            req.arrival = now;
            req.coord = DramCoord{0, m.bank, m.row, 0};
            mc.enqueue(req);
        }
    }
    while (mc.busy())
        mc.tick(++now, done);

    EXPECT_EQ(mc.hammerStats().victimFlips, 0u);
    EXPECT_GT(mc.hammerStats().mitigationsRequested, 0u);
    EXPECT_GT(mc.hammerStats().mitigationsIssued, 0u);
    EXPECT_GT(mc.hammerStats().mitigationCycles, 0u);
    EXPECT_GT(mc.powerStats().mitigationEnergy, 0.0);
    // Every data read completed, and each maintenance completion is
    // flagged so DramSystem keeps it away from the read callback.
    std::uint64_t data_reads = 0;
    std::uint64_t maintenance = 0;
    for (const DramRequest &r : done)
        r.kind == RequestKind::Mitigation ? ++maintenance : ++data_reads;
    EXPECT_EQ(data_reads, 1000u);
    EXPECT_EQ(maintenance, mc.hammerStats().mitigationsIssued);
}

} // namespace
} // namespace smtdram
