/**
 * @file
 * Multi-socket NUMA topology parameters: how many sockets and cores
 * the machine has, how OS threads are placed onto cores, where each
 * thread's pages live, and what the socket interconnect costs.
 *
 * The default-constructed config describes the paper's machine: one
 * socket, one core.  SmtSystem builds that 1x1 machine for any config
 * whose topology is not active().
 */

#ifndef SMTDRAM_TOPOLOGY_TOPOLOGY_CONFIG_HH
#define SMTDRAM_TOPOLOGY_TOPOLOGY_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smtdram
{

/** How the OS scheduler maps threads onto cores at program start. */
enum class PlacementPolicy : std::uint8_t {
    Packed,      ///< fill core 0 first, then core 1, ...
    RoundRobin,  ///< thread i on core i mod totalCores
    MemoryAware, ///< spread by memory intensity, keep hot threads home
    Migrate,     ///< round-robin start + epoch-based migration
};

/** Which socket's DRAM a thread's pages are allocated from. */
enum class HomePolicy : std::uint8_t {
    Local,      ///< first-touch: pages live where the thread runs
    Loader,     ///< all pages on socket 0 (the loader's socket)
    Interleave, ///< pages round-robin across sockets
};

const char *placementPolicyName(PlacementPolicy policy);
const char *homePolicyName(HomePolicy policy);

/** Machine topology and OS placement parameters. */
struct TopologyConfig {
    /** Off by default: SmtSystem then ignores the fields below and
     *  builds the 1x1 machine. */
    bool enabled = false;

    std::uint32_t sockets = 1;
    std::uint32_t coresPerSocket = 1;

    /**
     * SMT contexts the OS will schedule per core; 0 means uncapped
     * (every core structurally holds all threads, as the 1x1
     * machine does).  This is a *policy* capacity — each core is
     * built with a context per OS thread so migration never needs
     * to renumber anything.
     */
    std::uint32_t smtWays = 0;

    PlacementPolicy placement = PlacementPolicy::Packed;
    HomePolicy home = HomePolicy::Local;

    /** Explicit thread->core map; overrides `placement` when set.
     *  Must then have exactly one entry per OS thread. */
    std::vector<std::uint32_t> pinned;

    /** Interconnect: per-hop latency on the socket ring, cycles. */
    Cycle hopLatency = 40;
    /** Cycles one transfer occupies a directed link (bandwidth). */
    Cycle linkOccupancy = 4;

    /** Migration check period, cycles; 0 disables migration even
     *  under PlacementPolicy::Migrate. */
    Cycle migrationEpoch = 0;
    /** Pipeline-refill penalty charged on arrival at the new core. */
    Cycle migrationCost = 1000;

    /** The topology fields are in use (even at trivial 1x1 size). */
    bool active() const { return enabled; }

    std::uint32_t totalCores() const { return sockets * coresPerSocket; }

    /**
     * True when the topology changes machine behavior: more than one
     * core exists.  Gates the configSignature() label suffix, the
     * numa.* stats block and RunResult::numa, so every 1x1 machine
     * prints one label and stats output whether or not `enabled` is
     * set.
     */
    bool nontrivial() const { return enabled && totalCores() > 1; }

    /** Per-core context cap with the 0-means-uncapped rule applied. */
    std::uint32_t
    effectiveWays(std::uint32_t num_threads) const
    {
        return smtWays > 0 ? smtWays : num_threads;
    }

    /**
     * Die (fatal) on structurally impossible topologies: zero-sized
     * dimensions, a pin map of the wrong length, out-of-range or
     * oversubscribed thread->core placements.  Emits warn_once
     * diagnostics for legal-but-suspect setups (uncapped packed
     * placement on a multi-core topology, Migrate with epoch 0).
     */
    void validate(std::uint32_t num_threads) const;

    bool operator==(const TopologyConfig &) const = default;
};

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_TOPOLOGY_CONFIG_HH
