/**
 * @file
 * Counters the NUMA layer adds on top of the per-socket DRAM stats:
 * local/remote traffic split, interconnect cycle totals, and the OS
 * scheduler's migration activity.  Exported as the stats schema v3
 * `numa.*` scalar block and in RunResult::numa, both only when the
 * topology is nontrivial (all zeros on the 1x1 machine).
 */

#ifndef SMTDRAM_TOPOLOGY_NUMA_STATS_HH
#define SMTDRAM_TOPOLOGY_NUMA_STATS_HH

#include <cstdint>
#include <vector>

namespace smtdram
{

/** NUMA-layer counters over the measurement window. */
struct NumaStats {
    std::uint64_t localReads = 0;
    std::uint64_t remoteReads = 0;
    std::uint64_t localWrites = 0;
    std::uint64_t remoteWrites = 0;

    /** Request-path interconnect cycles (queue + hops), all reads. */
    std::uint64_t outboundCycles = 0;
    /** Reply-path interconnect cycles added at delivery. */
    std::uint64_t returnCycles = 0;
    /** Cycles transfers waited behind earlier link occupants. */
    std::uint64_t linkQueueCycles = 0;
    std::uint64_t linkTransfers = 0;

    std::uint64_t migrations = 0;
    /** Cycles threads spent parked + refilling across migrations. */
    std::uint64_t migrationStallCycles = 0;

    /** Remote demand reads per OS thread. */
    std::vector<std::uint64_t> perThreadRemoteReads;
    /** Reply-path cycles per OS thread (the remote tax each pays). */
    std::vector<std::uint64_t> perThreadReturnCycles;

    bool operator==(const NumaStats &) const = default;

    double
    remoteReadFrac() const
    {
        const std::uint64_t total = localReads + remoteReads;
        return total ? static_cast<double>(remoteReads) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_NUMA_STATS_HH
