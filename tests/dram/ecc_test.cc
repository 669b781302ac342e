/**
 * @file
 * Tests of the SECDED ECC layer: validate() rules (death tests), the
 * seeded error sampling, check-bit transfer overhead, correctable
 * fix-up and poisoned-line delivery, patrol-scrub generation and
 * priority, and the default-off invariant (ECC disabled must leave
 * timing, stats, and configuration signatures untouched).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/dram_system.hh"
#include "dram/fault_injector.hh"
#include "dram/memory_controller.hh"
#include "sim/experiment.hh"

namespace smtdram
{
namespace
{

DramConfig
eccConfig()
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.ecc.enabled = true;
    return c;
}

/** Drive @p mc until idle, appending completions to @p done. */
void
drain(MemoryController &mc, Cycle &now, std::vector<DramRequest> &done,
      Cycle limit = 5'000'000)
{
    while (mc.busy()) {
        ++now;
        ASSERT_LT(now, limit) << "controller did not drain";
        mc.tick(now, done);
    }
}

DramRequest
readAt(const AddressMapping &mapping, std::uint64_t id, Addr addr,
       Cycle now)
{
    DramRequest req;
    req.id = id;
    req.kind = RequestKind::Read;
    req.addr = addr;
    req.arrival = now;
    req.coord = mapping.map(addr);
    return req;
}

// ---- validate() death tests ----------------------------------------

TEST(EccValidateDeathTest, ZeroScrubIntervalPanics)
{
    DramConfig c = eccConfig();
    c.ecc.scrubInterval = 0;
    EXPECT_DEATH(c.validate(), "scrub interval is 0");
}

TEST(EccValidateDeathTest, UncorrectableAboveCorrectableCeilingPanics)
{
    DramConfig c = eccConfig();
    c.ecc.correctableProbability = 0.001;
    c.ecc.uncorrectableProbability = 0.01;
    EXPECT_DEATH(c.validate(), "correctable ceiling");
}

TEST(EccValidateDeathTest, OverheadExceedingBurstPanics)
{
    DramConfig c = eccConfig();
    c.ecc.checkOverheadCycles = c.lineTransferCycles() + 1;
    EXPECT_DEATH(c.validate(), "exceeds the");
}

TEST(EccValidateDeathTest, ProbabilityOutOfRangePanics)
{
    DramConfig c = eccConfig();
    c.ecc.correctableProbability = 1.5;
    c.ecc.uncorrectableProbability = 1.2;
    EXPECT_DEATH(c.validate(), "lie in");
}

TEST(EccValidateDeathTest, ZeroScrubBurstPanics)
{
    DramConfig c = eccConfig();
    c.ecc.scrubBurst = 0;
    EXPECT_DEATH(c.validate(), "scrubBurst is 0");
}

TEST(EccValidate, DefaultsAndSaneValuesPass)
{
    DramConfig off = DramConfig::ddrSdram(2);
    off.validate();  // ECC off: no new constraint may fire

    DramConfig on = eccConfig();
    on.ecc.correctableProbability = 0.01;
    on.ecc.uncorrectableProbability = 0.001;
    on.validate();

    // Inert when disabled: nonsense knobs must not be checked.
    DramConfig inert = DramConfig::ddrSdram(1);
    inert.ecc.scrubInterval = 0;
    inert.ecc.scrubBurst = 0;
    inert.validate();
}

// ---- FaultInjector ECC sampling ------------------------------------

TEST(EccSampling, InactiveWhenDisabled)
{
    EccConfig e;
    e.correctableProbability = 1.0;  // enabled is false
    FaultInjector inj(FaultConfig{}, e, 0);
    EXPECT_FALSE(inj.eccActive());
    EXPECT_EQ(inj.sampleEccRead(), EccOutcome::Clean);
    EXPECT_EQ(inj.stats().eccSingleBit, 0u);
}

TEST(EccSampling, DeterministicPerSeedAndChannel)
{
    FaultConfig f;
    f.seed = 99;
    EccConfig e;
    e.enabled = true;
    e.correctableProbability = 0.3;
    e.uncorrectableProbability = 0.1;
    auto trace = [&](std::uint32_t channel) {
        FaultInjector inj(f, e, channel);
        std::vector<EccOutcome> outcomes;
        for (int i = 0; i < 500; ++i)
            outcomes.push_back(inj.sampleEccRead());
        return outcomes;
    };
    EXPECT_EQ(trace(0), trace(0));
    EXPECT_NE(trace(0), trace(1));
}

TEST(EccSampling, IndependentOfTheFaultStream)
{
    // Drawing bus-stall samples must not shift the ECC outcomes of
    // the same seed: the two mechanisms use separate streams.
    FaultConfig f;
    f.seed = 7;
    f.enabled = true;
    f.busStallProbability = 0.5;
    f.busStallCycles = 10;
    EccConfig e;
    e.enabled = true;
    e.correctableProbability = 0.2;
    e.uncorrectableProbability = 0.05;

    FaultInjector plain(FaultConfig{.seed = 7}, e, 0);
    FaultInjector mixed(f, e, 0);
    for (Cycle now = 0; now < 300; ++now) {
        mixed.sampleBusStall(now);
        EXPECT_EQ(plain.sampleEccRead(), mixed.sampleEccRead());
    }
}

TEST(EccSampling, FrequenciesTrackProbabilities)
{
    EccConfig e;
    e.enabled = true;
    e.correctableProbability = 0.2;
    e.uncorrectableProbability = 0.05;
    FaultInjector inj(FaultConfig{.seed = 3}, e, 0);
    for (int i = 0; i < 20'000; ++i)
        inj.sampleEccRead();
    const FaultStats &s = inj.stats();
    EXPECT_NEAR(s.eccSingleBit / 20'000.0, 0.2, 0.02);
    EXPECT_NEAR(s.eccMultiBit / 20'000.0, 0.05, 0.01);
}

// ---- Check-bit transfer overhead -----------------------------------

TEST(EccTiming, CheckBitsLengthenEveryBurst)
{
    DramConfig off = DramConfig::ddrSdram(1);
    DramConfig on = off;
    on.ecc.enabled = true;
    on.ecc.checkOverheadCycles = 6;
    ASSERT_EQ(on.burstCycles(), off.burstCycles() + 6);

    auto completion_of = [](const DramConfig &c) {
        AddressMapping mapping(c);
        MemoryController mc(c, SchedulerKind::Fcfs);
        std::vector<DramRequest> done;
        Cycle now = 0;
        DramRequest req = readAt(mapping, 1, 0, now);
        mc.enqueue(req);
        drain(mc, now, done);
        EXPECT_EQ(done.size(), 1u);
        return done.empty() ? Cycle{0} : done[0].completion;
    };
    EXPECT_EQ(completion_of(on), completion_of(off) + 6);

    // The stat books exactly the overhead, once per transaction.
    AddressMapping mapping(on);
    MemoryController mc(on, SchedulerKind::Fcfs);
    std::vector<DramRequest> done;
    Cycle now = 0;
    mc.enqueue(readAt(mapping, 1, 0, now));
    drain(mc, now, done);
    EXPECT_EQ(mc.stats().eccCheckCycles, 6u);
    EXPECT_EQ(mc.stats().busBusyCycles,
              on.lineTransferCycles() + 6u);
}

// ---- Correctable / uncorrectable delivery --------------------------

TEST(EccOutcomes, CorrectableErrorsAreTransparent)
{
    DramConfig c = eccConfig();
    c.ecc.correctableProbability = 1.0;  // every read flips one bit
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 5; ++i)
        mc.enqueue(readAt(mapping, i + 1, i * 64, now));
    drain(mc, now, done);

    ASSERT_EQ(done.size(), 5u);
    for (const DramRequest &req : done) {
        EXPECT_TRUE(req.corrected);
        EXPECT_FALSE(req.poisoned);
    }
    EXPECT_EQ(mc.stats().correctedErrors, 5u);
    EXPECT_EQ(mc.stats().uncorrectableErrors, 0u);
}

TEST(EccOutcomes, UncorrectableErrorsDeliverPoisoned)
{
    DramConfig c = eccConfig();
    // Every read errs; half the draws land in the multi-bit band.
    c.ecc.correctableProbability = 0.5;
    c.ecc.uncorrectableProbability = 0.5;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = 0;
    constexpr std::uint64_t kReads = 64;
    for (std::uint64_t i = 0; i < kReads; ++i)
        mc.enqueue(readAt(mapping, i + 1, i * 64, now));
    drain(mc, now, done);

    ASSERT_EQ(done.size(), kReads);
    std::uint64_t corrected = 0, poisoned = 0;
    for (const DramRequest &req : done) {
        EXPECT_NE(req.corrected, req.poisoned);  // exactly one
        corrected += req.corrected;
        poisoned += req.poisoned;
    }
    EXPECT_EQ(corrected + poisoned, kReads);
    EXPECT_GT(poisoned, 0u);
    EXPECT_EQ(mc.stats().correctedErrors, corrected);
    EXPECT_EQ(mc.stats().uncorrectableErrors, poisoned);
}

TEST(EccOutcomes, ExhaustedRetriesPoisonInsteadOfSilentDelivery)
{
    DramConfig c = eccConfig();
    c.faults.enabled = true;
    c.faults.readErrorProbability = 1.0;  // every attempt fails
    c.faults.maxRetries = 2;
    c.faults.retryBackoff = 8;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = 0;
    mc.enqueue(readAt(mapping, 1, 0, now));
    drain(mc, now, done);

    // Delivered exactly once — but flagged, not silent.
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].poisoned);
    EXPECT_EQ(done[0].retries, 2u);
    EXPECT_EQ(mc.stats().retriesExhausted, 1u);
    EXPECT_EQ(mc.stats().uncorrectableErrors, 1u);
}

TEST(EccOutcomes, EccOffExhaustedRetriesStayAuditable)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.faults.enabled = true;
    c.faults.readErrorProbability = 1.0;
    c.faults.maxRetries = 1;
    c.faults.retryBackoff = 8;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    std::vector<DramRequest> done;
    Cycle now = 0;
    mc.enqueue(readAt(mapping, 1, 0, now));
    drain(mc, now, done);

    // Legacy behavior: delivered unpoisoned, but the stat and the
    // state dump record it.
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].poisoned);
    EXPECT_EQ(mc.stats().retriesExhausted, 1u);
    EXPECT_EQ(mc.stats().uncorrectableErrors, 0u);
    std::ostringstream os;
    mc.dumpState(os);
    EXPECT_NE(os.str().find("retriesExhausted=1"), std::string::npos);
}

// ---- Patrol scrub ---------------------------------------------------

TEST(Scrub, GeneratesPacedTrafficThatDrains)
{
    DramConfig c = DramConfig::ddrSdram(2);
    c.ecc.enabled = true;
    c.ecc.scrubInterval = 1'000;
    c.ecc.scrubBurst = 2;
    c.checkerEnabled = true;
    DramSystem dram(c, SchedulerKind::HitFirst);

    std::uint64_t callbacks = 0;
    dram.setReadCallback([&callbacks](const DramRequest &) {
        ++callbacks;
    });

    Cycle now = 0;
    for (; now < 20'000; ++now)
        dram.tick(now);
    while (dram.busy())
        dram.tick(++now);

    const ControllerStats stats = dram.aggregateStats();
    // ~20 intervals x 2 channels x burst 2, minus staggering slack.
    EXPECT_GE(stats.scrubReads, 60u);
    EXPECT_LE(stats.scrubReads, 80u);
    // Scrub traffic is internal: no demand callback, no demand reads.
    EXPECT_EQ(callbacks, 0u);
    EXPECT_EQ(stats.reads, 0u);
    // The conservation checker covered every scrub request.
    ASSERT_NE(dram.checker(), nullptr);
    dram.checker()->verifyDrained();
    EXPECT_EQ(dram.checker()->enqueued(), stats.scrubReads);
}

TEST(Scrub, ScrubReadsPassThroughEccSampling)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.ecc.enabled = true;
    c.ecc.scrubInterval = 500;
    c.ecc.correctableProbability = 1.0;  // every read corrects
    DramSystem dram(c, SchedulerKind::Fcfs);

    Cycle now = 0;
    for (; now < 10'000; ++now)
        dram.tick(now);
    while (dram.busy())
        dram.tick(++now);

    const ControllerStats stats = dram.aggregateStats();
    EXPECT_GT(stats.scrubReads, 0u);
    // Patrol scrub is what finds latent errors: every scrub read
    // sampled the ECC outcome.
    EXPECT_EQ(stats.correctedErrors, stats.scrubReads);
}

TEST(Scrub, YieldsToDemandWhenBothAreEligible)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.ecc.enabled = true;
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    Cycle now = 1;
    // A scrub read and a demand read to the same bank, same cycle.
    DramRequest scrub = readAt(mapping, 1, 0, now);
    scrub.kind = RequestKind::Scrub;
    DramRequest demand = readAt(mapping, 2, 0, now);
    mc.enqueue(scrub);
    mc.enqueue(demand);

    std::vector<DramRequest> done;
    drain(mc, now, done);
    ASSERT_EQ(done.size(), 2u);
    // Demand issued first even though the scrub arrived first.
    EXPECT_EQ(done[0].id, 2u);
    EXPECT_EQ(done[1].id, 1u);
    EXPECT_LT(done[0].issueTime, done[1].issueTime);
}

TEST(Scrub, StaleScrubEscalatesPastDemand)
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.ecc.enabled = true;
    c.ecc.scrubInterval = 100;  // escalation deadline = 800 cycles
    AddressMapping mapping(c);
    MemoryController mc(c, SchedulerKind::Fcfs);

    Cycle now = 1;
    DramRequest scrub = readAt(mapping, 1, 0, now);
    scrub.kind = RequestKind::Scrub;
    mc.enqueue(scrub);

    // Saturate the controller with demand reads so a fresh scrub
    // never gets an idle cycle; the stale one must still issue.
    std::vector<DramRequest> done;
    std::uint64_t next_id = 2;
    bool scrub_done = false;
    for (; now < 200'000 && !scrub_done; ++now) {
        while (mc.canAcceptRead()) {
            const std::uint64_t id = next_id++;
            mc.enqueue(readAt(mapping, id, (id * 64) % (1 << 20),
                              now));
        }
        done.clear();
        mc.tick(now, done);
        for (const DramRequest &req : done) {
            if (req.kind == RequestKind::Scrub)
                scrub_done = true;
        }
    }
    EXPECT_TRUE(scrub_done) << "stale scrub never escalated";
    EXPECT_EQ(mc.stats().scrubReads, 1u);
}

// ---- Default-off invariants ----------------------------------------

TEST(EccOff, NoScrubNoErrorsNoOverhead)
{
    DramConfig c = DramConfig::ddrSdram(2);
    ASSERT_FALSE(c.ecc.enabled);
    EXPECT_EQ(c.burstCycles(), c.lineTransferCycles());

    DramSystem dram(c, SchedulerKind::HitFirst);
    for (Cycle now = 0; now < 100'000; ++now)
        dram.tick(now);
    const ControllerStats stats = dram.aggregateStats();
    EXPECT_EQ(stats.scrubReads, 0u);
    EXPECT_EQ(stats.correctedErrors, 0u);
    EXPECT_EQ(stats.uncorrectableErrors, 0u);
    EXPECT_EQ(stats.eccCheckCycles, 0u);
}

TEST(EccOff, ConfigSignatureMatchesPreEccBehavior)
{
    // The exact pre-ECC label, frozen: ECC-off machines must keep
    // printing it byte-identically in the stats `meta.config`.
    const SystemConfig config = SystemConfig::paperDefault(2);
    EXPECT_EQ(configSignature(config),
              "2C-1G-xor-open-Hit-first-l3real-pf0");

    SystemConfig ecc = config;
    ecc.dram.ecc.enabled = true;
    EXPECT_NE(configSignature(ecc), configSignature(config));
}

} // namespace
} // namespace smtdram
