/**
 * @file
 * Quickstart: build the paper's default machine (Table 1), run the
 * 2-MEM workload mix (mcf + ammp), and print the headline numbers —
 * per-thread IPC, weighted speedup, row-buffer miss rate, and the
 * memory-concurrency distribution.
 *
 *   ./quickstart [--mix 2-MEM] [--insts 200000] [--scheduler hit-first]
 */

#include <cstdio>

#include "common/flags.hh"
#include "sim/parallel_runner.hh"

using namespace smtdram;

int
main(int argc, char **argv)
{
    Flags flags;
    flags.declare("mix", "2-MEM", "Table 2 workload mix to run");
    flags.declare("insts", "200000", "measured instructions/thread");
    flags.declare("warmup", "50000", "warm-up instructions/thread");
    flags.declare("scheduler", "hit-first",
                  "DRAM scheduling policy (fcfs, hit-first, age, "
                  "request, rob, iq)");
    flags.parse(argc, argv,
                "smtdram quickstart: one workload mix on the paper's "
                "default 2-channel DDR SDRAM machine");

    const WorkloadMix &mix = mixByName(flags.getString("mix"));
    const auto insts = flags.getUnsigned<std::uint64_t>("insts");
    const auto warmup = flags.getUnsigned<std::uint64_t>("warmup");

    SystemConfig config = SystemConfig::paperDefault(
        static_cast<std::uint32_t>(mix.apps.size()));
    config.scheduler =
        schedulerFromName(flags.getString("scheduler"));

    std::printf("machine : 2-channel DDR SDRAM, %s scheduling, "
                "DWarn fetch\n",
                schedulerName(config.scheduler).c_str());
    std::printf("workload: %s (", mix.name.c_str());
    for (size_t i = 0; i < mix.apps.size(); ++i)
        std::printf("%s%s", i ? ", " : "", mix.apps[i].c_str());
    std::printf(")\n\n");

    // One worker: the mix and its baselines run inline, in order.
    ParallelExperimentRunner runner({insts, warmup, 42}, 1);
    const std::size_t id = runner.submitMix(config, mix);
    runner.run();
    const MixRun &result = runner.mixResult(id);

    // Weighted speedup divides by each app's alone IPC on the paper's
    // default machine; these are memo hits.
    const SystemConfig reference = SystemConfig::paperDefault(1);
    for (size_t i = 0; i < mix.apps.size(); ++i) {
        std::printf("  thread %zu %-10s IPC %.3f (alone %.3f)\n", i,
                    mix.apps[i].c_str(), result.run.ipc[i],
                    runner.aloneIpc(mix.apps[i], reference));
    }
    std::printf("\n  weighted speedup      : %.3f\n",
                result.weightedSpeedup);
    std::printf("  cycles measured       : %llu\n",
                (unsigned long long)result.run.measuredCycles);
    std::printf("  DRAM reads / writes   : %llu / %llu\n",
                (unsigned long long)result.run.dram.reads,
                (unsigned long long)result.run.dram.writes);
    std::printf("  mem accesses/100 inst : %.2f\n",
                result.run.memAccessPer100());
    std::printf("  row-buffer miss rate  : %.1f%%\n",
                100.0 * result.run.dram.rowMissRate());
    std::printf("  avg read latency      : %.0f cycles\n",
                result.run.dram.readLatency.mean());

    std::printf("\n  outstanding requests while DRAM busy:\n");
    for (const HistogramBin &bin :
         binFractions(result.run.outstandingHist, {1, 4, 8, 16})) {
        std::printf("    %-6s %5.1f%%\n", bin.label.c_str(),
                    100.0 * bin.fraction);
    }
    return 0;
}
