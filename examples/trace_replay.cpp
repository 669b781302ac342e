/**
 * @file
 * Example: record a workload to a trace file, then replay it through
 * the full machine and confirm the trace-driven run reproduces the
 * execution-driven one — the workflow for pinning a workload across
 * simulator versions or shipping a reproducer.
 *
 *   ./trace_replay [--app mcf] [--insts 20000] [--trace /tmp/t.bin]
 */

#include <cstdio>

#include "common/flags.hh"
#include "sim/smt_system.hh"
#include "workload/trace.hh"

using namespace smtdram;

namespace
{

/** Run one thread's stream through the default machine. */
RunResult
runStream(InstStream &stream, std::uint64_t insts,
          std::uint64_t warmup, const AppProfile &profile)
{
    // SmtSystem owns SyntheticStreams; for arbitrary streams drive
    // the pieces directly, mirroring SmtSystem::stepCycle().
    SystemConfig config = SystemConfig::paperDefault(1);
    EventQueue events;
    DramSystem dram(config.dram, config.scheduler);
    Hierarchy hierarchy(config.hierarchy, dram, events, 1);
    hierarchy.preallocate(0, SyntheticStream::kCodeBase,
                          profile.codeBytes);
    hierarchy.preallocate(0, SyntheticStream::kHotBase,
                          profile.hotBytes);
    hierarchy.preallocate(0, SyntheticStream::kColdBase,
                          profile.coldBytes);
    SmtCore core(config.core, hierarchy);
    core.bindStream(0, &stream);

    Cycle now = 0;
    auto run_until = [&](std::uint64_t target) {
        while (core.perf(0).committedInsts < target) {
            ++now;
            events.runUntil(now);
            dram.tick(now);
            hierarchy.tick(now);
            core.cycle(now);
        }
    };
    run_until(warmup);
    const Cycle start = now;
    const std::uint64_t base = core.perf(0).committedInsts;
    run_until(base + insts);

    RunResult r;
    r.measuredCycles = now - start;
    r.ipc.push_back(static_cast<double>(insts) / (now - start));
    r.dram = dram.aggregateStats();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("app", "mcf", "SPEC2000 application model");
    flags.declare("insts", "20000", "measured instructions");
    flags.declare("warmup", "10000", "warm-up instructions");
    flags.declare("trace", "/tmp/smtdram_example.trace",
                  "trace file path");
    flags.parse(argc, argv,
                "Record a workload trace, replay it, and compare the "
                "two runs");

    const AppProfile &profile =
        specProfile(flags.getString("app"));
    const auto insts = flags.getUnsigned<std::uint64_t>("insts");
    const auto warmup = flags.getUnsigned<std::uint64_t>("warmup");
    const std::string path = flags.getString("trace");

    // Pass 1: execution-driven, recording as we go.
    RunResult direct;
    {
        SyntheticStream source(profile, 42);
        TraceWriter writer(path);
        RecordingStream recorded(source, writer);
        direct = runStream(recorded, insts, warmup, profile);
        std::printf("recorded %llu instructions to %s\n",
                    (unsigned long long)writer.written(),
                    path.c_str());
    }

    // Pass 2: trace-driven replay.
    TraceReader reader(path);
    const RunResult replayed =
        runStream(reader, insts, warmup, profile);

    std::printf("\n%-22s %12s %12s\n", "", "direct", "replayed");
    std::printf("%-22s %12.3f %12.3f\n", "IPC", direct.ipc[0],
                replayed.ipc[0]);
    std::printf("%-22s %12llu %12llu\n", "measured cycles",
                (unsigned long long)direct.measuredCycles,
                (unsigned long long)replayed.measuredCycles);
    std::printf("%-22s %12llu %12llu\n", "DRAM reads",
                (unsigned long long)direct.dram.reads,
                (unsigned long long)replayed.dram.reads);

    const bool match =
        direct.measuredCycles == replayed.measuredCycles &&
        direct.dram.reads == replayed.dram.reads;
    std::printf("\nreplay %s the execution-driven run\n",
                match ? "exactly reproduces" : "DIVERGES from");
    std::remove(path.c_str());
    return match ? 0 : 1;
}
