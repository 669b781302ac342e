#include "topology/placement.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace smtdram
{

double
memoryIntensityScore(const AppProfile &app)
{
    double base = 0.0;
    switch (app.category) {
      case AppCategory::Mem: base = 4.0; break;
      case AppCategory::Mid: base = 1.0; break;
      case AppCategory::Ilp: base = 0.0; break;
    }
    return base + app.loadFrac + app.coldFrac;
}

namespace
{

/**
 * Greedy memory-intensity-aware spreading (the papers' near-linear
 * optimisation): place the hungriest threads first, each on the
 * core minimising (remote-access cost) + (socket intensity already
 * placed) + (core load tiebreak).  With the Loader home policy the
 * remote cost term keeps memory-bound threads on socket 0, which is
 * exactly the placement round-robin gets wrong.
 */
std::vector<std::uint32_t>
memoryAware(const TopologyConfig &topo,
            const std::vector<AppProfile> &apps)
{
    const std::uint32_t cores = topo.totalCores();
    const auto n = static_cast<std::uint32_t>(apps.size());
    const std::uint32_t ways = topo.effectiveWays(n);

    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&apps](std::uint32_t a, std::uint32_t b) {
                         return memoryIntensityScore(apps[a]) >
                                memoryIntensityScore(apps[b]);
                     });

    // Where a thread's pages will live, when knowable up front.
    // Local is never remote from its own core; Interleave is equally
    // remote from everywhere: both zero out the remote-cost term.
    const bool loader_home = topo.home == HomePolicy::Loader;

    std::vector<std::uint32_t> placement(n, 0);
    std::vector<double> socketLoad(topo.sockets, 0.0);
    std::vector<std::uint32_t> coreLoad(cores, 0);
    for (std::uint32_t t : order) {
        const double score = memoryIntensityScore(apps[t]);
        double best_cost = std::numeric_limits<double>::infinity();
        std::uint32_t best_core = 0;
        for (std::uint32_t c = 0; c < cores; ++c) {
            if (coreLoad[c] >= ways)
                continue;
            const std::uint32_t s = c / topo.coresPerSocket;
            const double remote =
                loader_home && s != 0 ? score : 0.0;
            const double cost = remote + 0.25 * socketLoad[s] +
                                0.01 * coreLoad[c];
            if (cost < best_cost) {
                best_cost = cost;
                best_core = c;
            }
        }
        placement[t] = best_core;
        socketLoad[best_core / topo.coresPerSocket] += score;
        ++coreLoad[best_core];
    }
    return placement;
}

} // namespace

std::vector<std::uint32_t>
computePlacement(const TopologyConfig &topo,
                 const std::vector<AppProfile> &apps)
{
    const auto n = static_cast<std::uint32_t>(apps.size());
    const std::uint32_t cores = topo.totalCores();
    const std::uint32_t ways = topo.effectiveWays(n);

    std::vector<std::uint32_t> placement(n, 0);
    switch (topo.placement) {
      case PlacementPolicy::Packed:
        for (std::uint32_t t = 0; t < n; ++t)
            placement[t] = t / ways;
        break;
      case PlacementPolicy::RoundRobin:
      case PlacementPolicy::Migrate:
        for (std::uint32_t t = 0; t < n; ++t)
            placement[t] = t % cores;
        break;
      case PlacementPolicy::MemoryAware:
        placement = memoryAware(topo, apps);
        break;
    }
    return placement;
}

} // namespace smtdram
