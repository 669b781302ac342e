/**
 * @file
 * Top-level system configuration bundling core, hierarchy, and DRAM
 * parameters.  Defaults reproduce Table 1 of the paper.
 */

#ifndef SMTDRAM_SIM_SYSTEM_CONFIG_HH
#define SMTDRAM_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/cache_config.hh"
#include "cpu/cpu_config.hh"
#include "dram/dram_config.hh"
#include "dram/scheduler.hh"
#include "topology/topology_config.hh"

namespace smtdram
{

/**
 * Observation outputs of one run — trace, stats documents, epoch
 * sampling.  Everything defaults off; none of it affects simulated
 * timing, so the configSignature() label leaves it out and the golden
 * figures are bit-identical whatever is set here.  Alone-IPC
 * baselines run with it cleared (see
 * ParallelExperimentRunner::aloneIpc).
 */
struct ObservabilityConfig {
    /** Chrome trace-event / Perfetto JSON output path; "" = off. */
    std::string tracePath;
    /** Schema-versioned stats JSON output path; "" = off. */
    std::string statsJsonPath;
    /** Epoch time-series CSV output path; "" = off. */
    std::string statsCsvPath;
    /** Cycles between stats time-series samples; 0 = final only. */
    Cycle epoch = 0;

    bool
    traceEnabled() const
    {
        return !tracePath.empty();
    }

    bool
    statsEnabled() const
    {
        return !statsJsonPath.empty() || !statsCsvPath.empty();
    }

    bool
    any() const
    {
        return traceEnabled() || statsEnabled();
    }

    bool operator==(const ObservabilityConfig &) const = default;
};

/**
 * Main-loop flavor.  EventDriven (the default) computes the global min
 * next-event cycle across the core, the event queue, and the DRAM
 * system and jumps straight there; PerCycle ticks every simulated
 * cycle and is kept as the differential oracle.  The two are proven
 * byte-identical by the kernel equivalence suite, so — like
 * ObservabilityConfig — the configSignature() label leaves the knob
 * out and golden figures gate both settings.
 */
enum class KernelMode : std::uint8_t {
    PerCycle,
    EventDriven,
};

/** Everything needed to instantiate one simulated machine. */
struct SystemConfig {
    CoreConfig core;
    HierarchyConfig hierarchy;
    DramConfig dram = DramConfig::ddrSdram(2);
    SchedulerKind scheduler = SchedulerKind::HitFirst;
    ObservabilityConfig observe;
    /**
     * Which main loop drives the run: the skip-to-next-event kernel
     * unless a test or CI leg asks for the per-cycle oracle.  The
     * SMTDRAM_KERNEL environment variable ("cycle" / "event")
     * overrides this (see kernelMode()) so whole harnesses (goldens,
     * benches) can be flipped for a CI leg without plumbing a flag
     * through every call site.
     */
    KernelMode kernel = KernelMode::EventDriven;
    /**
     * Multi-socket NUMA topology and OS placement.  Disabled by
     * default, which builds the paper's machine: one socket, one
     * core (see SmtSystem).
     */
    TopologyConfig topology;
    /**
     * Forward-progress watchdog: every thread must commit something
     * within this many cycles or the run aborts with a state dump
     * (a silent hang is always a simulator bug).  0 disables it.
     */
    Cycle progressWindow = 3'000'000;

    /**
     * The paper's default evaluation system (Section 5): 2-channel
     * DDR SDRAM, open page, XOR mapping, hit-first scheduling, DWarn
     * fetch policy, and Table 1 core/cache parameters.
     */
    static SystemConfig
    paperDefault(std::uint32_t num_threads)
    {
        SystemConfig c;
        c.core.numThreads = num_threads;
        c.core.fetchPolicy = FetchPolicyKind::DWarn;
        c.dram = DramConfig::ddrSdram(2);
        c.dram.mapping = MappingScheme::XorPermute;
        c.dram.pageMode = PageMode::Open;
        c.scheduler = SchedulerKind::HitFirst;
        return c;
    }

    /** Same machine with an infinitely large L3 (Figure 3 reference). */
    SystemConfig
    withInfiniteL3() const
    {
        SystemConfig c = *this;
        c.hierarchy.l3.infinite = true;
        return c;
    }

    /**
     * Field-by-field identity of the machine, every field included.
     * Alone-IPC baselines are memoized on it (see
     * ParallelExperimentRunner::aloneIpc), so no hand-kept field list
     * can alias two different machines.
     */
    bool operator==(const SystemConfig &) const = default;
};

} // namespace smtdram

#endif // SMTDRAM_SIM_SYSTEM_CONFIG_HH
