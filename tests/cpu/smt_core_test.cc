/** @file Unit tests for the SMT out-of-order core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/trace_event.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"
#include "temp_path.hh"

namespace smtdram
{
namespace
{

/** Scripted stream: endless repetition of a fixed op template. */
class FixedStream : public InstStream
{
  public:
    explicit FixedStream(MicroOp tmpl) : tmpl_(tmpl) {}

    MicroOp
    next() override
    {
        MicroOp op = tmpl_;
        op.pc = pc_;
        pc_ += 4;
        if (pc_ >= kBase + 2048)
            pc_ = kBase;
        return op;
    }

    static constexpr Addr kBase = 0x40'0000;

  private:
    MicroOp tmpl_;
    Addr pc_ = kBase;
};

MicroOp
alu(std::uint8_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dep1 = dep;
    return op;
}

/** Core + hierarchy + DRAM bundle for the tests. */
class CoreHarness
{
  public:
    explicit CoreHarness(CoreConfig config,
                         HierarchyConfig hier = HierarchyConfig{})
        : dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst),
          hierarchy(hier, dram, events, config.numThreads),
          core(config, hierarchy)
    {
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = now + 1; c <= now + cycles; ++c) {
            events.runUntil(c);
            dram.tick(c);
            hierarchy.tick(c);
            core.cycle(c);
        }
        now += cycles;
    }

    /** Steady-state IPC of thread 0 measured after a warm window. */
    double
    steadyIpc(Cycle warm = 30000, Cycle measure = 30000)
    {
        run(warm);
        const std::uint64_t base = core.perf(0).committedInsts;
        run(measure);
        return static_cast<double>(core.perf(0).committedInsts -
                                   base) /
               measure;
    }

    EventQueue events;
    DramSystem dram;
    Hierarchy hierarchy;
    SmtCore core;
    Cycle now = 0;
};

CoreConfig
oneThread()
{
    CoreConfig c;
    c.numThreads = 1;
    return c;
}

TEST(SmtCore, IndependentAluSaturatesAluUnits)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    // 6 IntALUs bound the rate below the 8-wide front end.
    EXPECT_NEAR(h.steadyIpc(), 6.0, 0.2);
}

TEST(SmtCore, SerialChainRunsAtOnePerCycle)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(1));
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 1.0, 0.05);
}

TEST(SmtCore, DistanceTwoChainsDoubleThroughput)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(2));
    h.core.bindStream(0, &s);
    EXPECT_NEAR(h.steadyIpc(), 2.0, 0.1);
}

TEST(SmtCore, IntMultLatencyBoundsChain)
{
    CoreConfig config = oneThread();
    CoreHarness h(config);
    MicroOp op;
    op.cls = OpClass::IntMult;
    op.dep1 = 1;
    FixedStream s(op);
    h.core.bindStream(0, &s);
    // A serial chain of 7-cycle multiplies: ~1/7 IPC.
    EXPECT_NEAR(h.steadyIpc(), 1.0 / 7.0, 0.02);
}

TEST(SmtCore, FpOpsUseFpQueue)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::FpAlu;
    FixedStream s(op);
    h.core.bindStream(0, &s);
    // 2 FPALUs bound independent FP throughput.
    EXPECT_NEAR(h.steadyIpc(), 2.0, 0.1);
}

TEST(SmtCore, TwoThreadsShareTheMachine)
{
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    FixedStream s0(alu(0)), s1(alu(0));
    h.core.bindStream(0, &s0);
    h.core.bindStream(1, &s1);
    h.run(60000);
    const double ipc0 = h.core.perf(0).committedInsts / 60000.0;
    const double ipc1 = h.core.perf(1).committedInsts / 60000.0;
    // Together they still cannot beat the 6 ALUs; sharing is fair.
    EXPECT_NEAR(ipc0 + ipc1, 6.0, 0.3);
    EXPECT_NEAR(ipc0, ipc1, 0.5);
}

TEST(SmtCore, LoadsHitInL1AfterPrewarm)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Load;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    // Load-only stream bound by the 2 cache ports.
    EXPECT_NEAR(h.steadyIpc(10000, 10000), 2.0, 0.2);
}

TEST(SmtCore, SnapshotReflectsOccupancy)
{
    CoreHarness h(oneThread());
    // A serial dependence chain piles instructions into the ROB/IQ.
    FixedStream s(alu(1));
    h.core.bindStream(0, &s);
    h.run(20000);  // past the I-cache warm-up
    const ThreadSnapshot snap = h.core.snapshot(0);
    EXPECT_GT(snap.robOccupancy, 0u);
    EXPECT_EQ(snap.robOccupancy, h.core.robOccupancy(0));
    EXPECT_EQ(snap.iqOccupancy, h.core.intIqOccupancy(0));
}

TEST(SmtCore, MispredictsReduceThroughput)
{
    // Identical streams except for branch predictability.
    auto run_with = [](bool predictable) {
        class BranchStream : public InstStream
        {
          public:
            explicit BranchStream(bool predictable)
                : predictable_(predictable)
            {
            }

            MicroOp
            next() override
            {
                MicroOp op;
                op.pc = pc_;
                if (++count_ % 8 == 0) {
                    op.cls = OpClass::Branch;
                    // Predictable: always fall through.  Noisy:
                    // genuinely random outcomes (unlearnable).
                    const bool taken =
                        !predictable_ && rng_.chance(0.5);
                    op.taken = taken;
                    op.nextPc = taken ? pc_ - 256 : pc_ + 4;
                    pc_ = op.nextPc;
                } else {
                    op.cls = OpClass::IntAlu;
                    pc_ += 4;
                }
                if (pc_ >= 0x40'0000 + 4096 || pc_ < 0x40'0000)
                    pc_ = 0x40'0000;
                return op;
            }

          private:
            bool predictable_;
            Rng rng_{99};
            Addr pc_ = 0x40'0000;
            std::uint64_t count_ = 0;
        };

        CoreConfig config;
        config.numThreads = 1;
        CoreHarness h(config);
        BranchStream s(predictable);
        h.core.bindStream(0, &s);
        h.run(40000);
        return static_cast<double>(h.core.perf(0).committedInsts);
    };

    const double predictable = run_with(true);
    const double noisy = run_with(false);
    EXPECT_GT(predictable, noisy * 1.3);
}

TEST(SmtCore, PerfCountsOpClasses)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Load;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    h.run(5000);
    EXPECT_GT(h.core.perf(0).loads, 0u);
    EXPECT_EQ(h.core.perf(0).stores, 0u);
    EXPECT_EQ(h.core.perf(0).branches, 0u);
}

TEST(SmtCore, StoresDrainThroughWriteBuffer)
{
    CoreHarness h(oneThread());
    MicroOp op;
    op.cls = OpClass::Store;
    op.effAddr = 0x1000'0000;
    FixedStream s(op);
    h.hierarchy.prewarmLine(0, 0x1000'0000, true);
    h.core.bindStream(0, &s);
    h.run(20000);
    // Stores commit; the write buffer (1 drain/cycle) is the bound.
    EXPECT_GT(h.core.perf(0).committedInsts, 10000u);
}

TEST(SmtCore, IntIssueActiveCyclesTracked)
{
    CoreHarness h(oneThread());
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    h.run(10000);  // I-cache warm-up
    const std::uint64_t base = h.core.intIssueActiveCycles();
    h.run(10000);
    EXPECT_GT(h.core.intIssueActiveCycles() - base, 9000u);
    EXPECT_LE(h.core.intIssueActiveCycles(), h.core.cyclesRun());
}

TEST(SmtCore, UnboundThreadIsIdle)
{
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    FixedStream s(alu(0));
    h.core.bindStream(0, &s);
    // Thread 1 has no stream; it must stay silent and harmless.
    h.run(5000);
    EXPECT_GT(h.core.perf(0).committedInsts, 0u);
    EXPECT_EQ(h.core.perf(1).committedInsts, 0u);
}

TEST(SmtCoreNextEvent, QuiescentCoreReportsNever)
{
    // No stream bound anywhere: cycle() can never do more than bump
    // rotation counters, which is exactly what the sentinel means.
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness h(config);
    EXPECT_EQ(h.core.nextEventAt(0), kCycleNever);
    h.run(100);
    EXPECT_EQ(h.core.nextEventAt(100), kCycleNever);
}

TEST(SmtCoreNextEvent, BoundStreamIsActionableNextCycle)
{
    CoreConfig config;
    config.numThreads = 1;
    CoreHarness h(config);
    FixedStream stream(alu());
    h.core.bindStream(0, &stream);
    // Fetchable work means the very next tick does something real.
    EXPECT_EQ(h.core.nextEventAt(0), 1u);
}

TEST(SmtCoreNextEvent, NeverSleepsThroughACommit)
{
    // The contract the skip kernel relies on: the core may answer
    // kCycleNever while its pending event lives elsewhere (an icache
    // fill in flight in the DRAM system), but the system-wide minimum
    // over {core, event queue, DRAM} must always be finite, and
    // whenever the core commits on cycle c it must have announced an
    // event no later than c on cycle c-1.
    CoreConfig config;
    config.numThreads = 1;
    CoreHarness h(config);
    FixedStream stream(alu());
    h.core.bindStream(0, &stream);
    std::uint64_t committed = 0;
    bool saw_core_event = false;
    for (Cycle c = 1; c <= 800; ++c) {
        const Cycle core_next = h.core.nextEventAt(c - 1);
        const Cycle system_next =
            std::min({core_next, h.events.nextEventAt(),
                      h.dram.nextEventAt(c - 1)});
        ASSERT_NE(system_next, kCycleNever) << "deadlock at " << c;
        ASSERT_GE(system_next, c);
        h.run(1);
        const std::uint64_t now_committed =
            h.core.perf(0).committedInsts;
        if (now_committed > committed) {
            // A commit at c was announced: the core itself reported
            // an actionable event no later than this cycle.
            EXPECT_LE(core_next, c) << "commit at " << c
                                    << " was not announced";
            saw_core_event = true;
        }
        committed = now_committed;
    }
    EXPECT_TRUE(saw_core_event);
    EXPECT_GT(committed, 0u);
}

TEST(SmtCoreNextEvent, SkipCyclesReplaysIdleTickingExactly)
{
    // Two identical 2-thread machines: A really ticks 137 quiescent
    // cycles, B skips them with skipCycles(137).  Binding the same
    // streams afterwards must produce identical per-thread progress —
    // the rotation counters that arbitrate round-robin ties between
    // the threads advance the same way in both machines.
    CoreConfig config;
    config.numThreads = 2;
    CoreHarness a(config);
    CoreHarness b(config);
    a.run(137);
    b.core.skipCycles(137);
    EXPECT_EQ(a.core.cyclesRun(), b.core.cyclesRun());

    FixedStream a0(alu()), a1(alu(1)), b0(alu()), b1(alu(1));
    a.core.bindStream(0, &a0);
    a.core.bindStream(1, &a1);
    b.core.bindStream(0, &b0);
    b.core.bindStream(1, &b1);
    a.run(500);
    b.run(500);
    EXPECT_EQ(a.core.cyclesRun(), b.core.cyclesRun());
    EXPECT_GT(a.core.perf(0).committedInsts, 0u);
    EXPECT_EQ(a.core.perf(0).committedInsts,
              b.core.perf(0).committedInsts);
    EXPECT_EQ(a.core.perf(1).committedInsts,
              b.core.perf(1).committedInsts);
}

TEST(SmtCoreNextEvent, SkipCyclesOpensFetchStallSpanOnFirstSkippedCycle)
{
    // Cycle 1 misses the cold I-cache (the code sits in the L2), so
    // the thread's fetch gate rises during that cycle and the
    // per-cycle kernel opens its fetch-stall span in cycle 2's fetch
    // stage.  A core that skips from cycle 2 to the fill must open the
    // span at cycle 2 too, and leave the same trace as one that
    // stepped every cycle.
    const std::string paths[2] = {testArtifactPath("stepped.json"),
                                  testArtifactPath("skipped.json")};
    for (int skip = 0; skip < 2; ++skip) {
        Tracer tracer(paths[skip]);
        CoreHarness h(oneThread());
        for (Addr off = 0; off < 2048; off += 64)
            h.hierarchy.prewarmLine(0, FixedStream::kBase + off, false);
        h.core.setTracer(&tracer);
        FixedStream stream(alu());
        h.core.bindStream(0, &stream);
        h.run(1);
        const Cycle next =
            std::min({h.core.nextEventAt(1), h.events.nextEventAt(),
                      h.dram.nextEventAt(1)});
        ASSERT_GT(next, 2u) << "cycle 2 must be skippable";
        ASSERT_NE(next, kCycleNever);
        if (skip) {
            h.core.skipCycles(next - 2);
            h.now = next - 1;
        }
        h.run(300 - h.now);
    }

    std::string traces[2];
    for (int i = 0; i < 2; ++i) {
        std::ifstream in(paths[i]);
        std::ostringstream ss;
        ss << in.rdbuf();
        traces[i] = ss.str();
        std::remove(paths[i].c_str());
    }
    const std::string opened =
        "{\"ph\":\"b\",\"pid\":1,\"tid\":0,\"ts\":2,"
        "\"name\":\"fetch-stall\",\"cat\":\"cpu\",\"id\":\"0\","
        "\"args\":{\"reason\":\"icache\",\"thread\":0}}";
    EXPECT_NE(traces[1].find(opened), std::string::npos) << traces[1];
    EXPECT_EQ(traces[0], traces[1]);
}

TEST(SmtCoreWakeup, SameProducerOnBothOperandsWakesOnce)
{
    // A 7-cycle multiply chain whose every op names its predecessor
    // on both operands must time exactly like the one-operand chain:
    // the consumer wakes on the producer's completion, not before,
    // and issues once (a second wakeup would put an issued op back
    // on the ready list and trip the IQ panics).
    MicroOp one;
    one.cls = OpClass::IntMult;
    one.dep1 = 1;
    MicroOp both = one;
    both.dep2 = 1;
    CoreHarness a(oneThread());
    CoreHarness b(oneThread());
    FixedStream sa(one), sb(both);
    a.core.bindStream(0, &sa);
    b.core.bindStream(0, &sb);
    a.run(5000);
    b.run(5000);
    EXPECT_GT(b.core.perf(0).committedInsts, 600u);
    EXPECT_EQ(a.core.perf(0).committedInsts, b.core.perf(0).committedInsts);
    EXPECT_EQ(a.core.robOccupancy(0), b.core.robOccupancy(0));
}

/** Scripted stream: the given ops, then independent ALU ops. */
class ScriptStream : public InstStream
{
  public:
    explicit ScriptStream(std::vector<MicroOp> ops) : ops_(std::move(ops))
    {
    }

    MicroOp
    next() override
    {
        MicroOp op = i_ < ops_.size() ? ops_[i_++] : alu();
        op.pc = pc_;
        pc_ = pc_ + 4 >= FixedStream::kBase + 2048 ? FixedStream::kBase
                                                   : pc_ + 4;
        return op;
    }

  private:
    std::vector<MicroOp> ops_;
    size_t i_ = 0;
    Addr pc_ = FixedStream::kBase;
};

MicroOp
load(Addr vaddr, std::uint8_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.effAddr = vaddr;
    op.dep1 = dep;
    return op;
}

TEST(SmtCoreWakeup, ReadyListsStayAgeOrderedAcrossThreads)
{
    // One cache port, so ready loads queue for it in age order.
    // Thread 0 runs a chain of four 7-cycle multiplies feeding one
    // load A, then parks.  Thread 1, whose warm-up is longer, then
    // floods the queue with independent DRAM-bound loads that are all
    // younger than A.  When the last multiply completes, A must take
    // the port that same cycle, ahead of the thread-1 backlog that
    // became ready before it.
    CoreConfig config;
    config.numThreads = 2;
    config.cachePorts = 1;
    HierarchyConfig hier;
    hier.l1d.mshrs = hier.l2.mshrs = hier.l3.mshrs = 256;
    CoreHarness h(config, hier);

    // The warm-up walks the whole code range once (from the L2), so
    // every fetch after it hits the I-cache.
    for (ThreadId t = 0; t < 2; ++t) {
        for (Addr off = 0; off < 2048; off += 64)
            h.hierarchy.prewarmLine(t, FixedStream::kBase + off, false);
    }
    constexpr size_t kWarm = 2048 / 4;
    std::vector<MicroOp> p0(kWarm, alu());
    MicroOp mult;
    mult.cls = OpClass::IntMult;
    p0.push_back(mult);
    mult.dep1 = 1;
    for (int i = 0; i < 3; ++i)
        p0.push_back(mult);
    p0.push_back(load(0x2000'0000, 1));
    MicroOp branch;
    branch.cls = OpClass::Branch;
    branch.taken = true;  // ends the fetch group
    p0.push_back(branch);
    std::vector<MicroOp> p1(kWarm + 96, alu());
    for (Addr i = 0; i < 48; ++i)
        p1.push_back(load(0x1000'0000 + i * 64));
    ScriptStream t0(p0), t1(p1);
    h.core.bindStream(0, &t0);
    h.core.bindStream(1, &t1);

    Cycle last_mult_issue = 0;
    Cycle load_issue = 0;
    std::uint32_t backlog = 0;  // thread-1 IQ entries as A woke
    bool parked = false;
    for (Cycle c = 1; c <= 3000 && load_issue == 0; ++c) {
        const std::uint32_t t1_waiting = h.core.intIqOccupancy(1);
        h.run(1);
        if (!parked && h.core.perf(0).fetchedInsts >= p0.size()) {
            h.core.bindStream(0, nullptr);
            parked = true;
        }
        // Only A is left of thread 0 once the last multiply issued.
        if (parked && last_mult_issue == 0 &&
            h.core.perf(0).fetchedInsts == p0.size() &&
            h.core.robOccupancy(0) > 0 && h.core.intIqOccupancy(0) == 1)
            last_mult_issue = c;
        if (h.core.perf(0).loads == 1) {
            load_issue = c;
            backlog = t1_waiting;
        }
    }
    ASSERT_NE(last_mult_issue, 0u);
    ASSERT_NE(load_issue, 0u);
    EXPECT_EQ(load_issue, last_mult_issue + execLatency(OpClass::IntMult));
    EXPECT_GE(backlog, 8u);  // not vacuous: younger loads were waiting
}

TEST(SmtCoreDeathTest, TooFewRegistersRejected)
{
    CoreConfig config;
    config.numThreads = 8;
    config.intRegs = 100;  // < 8 * 32 architectural
    DramSystem dram(DramConfig::ddrSdram(2), SchedulerKind::HitFirst);
    EventQueue events;
    Hierarchy hier(HierarchyConfig{}, dram, events, 8);
    EXPECT_EXIT(SmtCore(config, hier), testing::ExitedWithCode(1),
                "registers");
}

} // namespace
} // namespace smtdram
