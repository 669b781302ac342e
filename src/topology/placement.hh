/**
 * @file
 * OS thread-placement policies: pure functions from (topology,
 * application profiles) to a thread->core map, plus the memory-
 * intensity score the MemoryAware policy and the migration engine
 * rank threads by.
 */

#ifndef SMTDRAM_TOPOLOGY_PLACEMENT_HH
#define SMTDRAM_TOPOLOGY_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "topology/topology_config.hh"
#include "workload/app_profile.hh"

namespace smtdram
{

/**
 * Static memory-intensity estimate from the profile alone: the
 * paper's MEM/MID/ILP classes dominate, with the load fraction and
 * cold-set share breaking ties within a class.  Higher = more DRAM
 * bandwidth demanded.
 */
double memoryIntensityScore(const AppProfile &app);

/**
 * Compute the initial thread->core map for @p apps on @p topo.
 * Migrate starts from the RoundRobin map.  The result always respects
 * the per-core SMT-way capacity (validate() guarantees it is
 * satisfiable).
 */
std::vector<std::uint32_t>
computePlacement(const TopologyConfig &topo,
                 const std::vector<AppProfile> &apps);

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_PLACEMENT_HH
