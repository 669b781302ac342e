/**
 * @file
 * Cache hierarchy parameters, defaulting to Table 1 of the paper.
 */

#ifndef SMTDRAM_CACHE_CACHE_CONFIG_HH
#define SMTDRAM_CACHE_CACHE_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace smtdram
{

/** Geometry and timing of one cache level. */
struct CacheLevelConfig {
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineBytes = 64;
    /** Access latency contributed by this level, cycles. */
    Cycle latency = 1;
    /** Miss status holding registers (outstanding misses). */
    std::uint32_t mshrs = 16;
    /**
     * When true every access to this level hits — the paper's
     * "infinitely large" cache used by the CPI-breakdown methodology
     * (Section 4.2) and the Figure 3 reference system.
     */
    bool infinite = false;

    std::uint64_t numSets() const { return sizeBytes / lineBytes / assoc; }

    bool operator==(const CacheLevelConfig &) const = default;
};

/** Full hierarchy: split L1s, unified L2 and L3, TLBs. */
struct HierarchyConfig {
    CacheLevelConfig l1i{64 * 1024, 2, 64, 1, 16};
    CacheLevelConfig l1d{64 * 1024, 2, 64, 1, 16};
    CacheLevelConfig l2{512 * 1024, 2, 64, 10, 16};
    CacheLevelConfig l3{4 * 1024 * 1024, 4, 64, 20, 16};

    /** ITLB/DTLB entries (shared across threads, thread-tagged). */
    std::uint32_t tlbEntries = 128;
    std::uint32_t pageBytes = 8192;
    /** Fixed penalty added to an access that misses the TLB. */
    Cycle tlbMissPenalty = 30;

    /** Return-path cycles from DRAM controller to the core. */
    Cycle dramReturnOverhead = 5;

    /**
     * Simple next-line prefetcher: a demand miss that reaches DRAM
     * also fetches the following line into L2/L3 (never the L1s),
     * bounded by the dedicated prefetch MSHRs of Table 1.  Off by
     * default; `smtdram_fig ablation_design_choices` sweeps it.
     */
    bool prefetchNextLine = false;
    /** Prefetch MSHR entries (Table 1: 4 per cache). */
    std::uint32_t prefetchMshrs = 4;

    void validate() const;

    bool operator==(const HierarchyConfig &) const = default;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_CACHE_CONFIG_HH
