/**
 * @file
 * SMT core parameters, defaulting to Table 1 of the paper.
 */

#ifndef SMTDRAM_CPU_CPU_CONFIG_HH
#define SMTDRAM_CPU_CPU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "cpu/fetch_policy.hh"

namespace smtdram
{

/** All structural parameters of the SMT core. */
struct CoreConfig {
    std::uint32_t numThreads = 1;

    FetchPolicyKind fetchPolicy = FetchPolicyKind::DWarn;
    /** ".2.8": up to 2 threads and 8 instructions per fetch cycle. */
    std::uint32_t fetchWidth = 8;
    std::uint32_t fetchThreadsPerCycle = 2;
    /**
     * Per-thread fetch/decode buffer capacity.  Must cover
     * fetchWidth * decodeStages so the decode pipe can stay full;
     * anything smaller artificially throttles fetch to
     * cap/decodeStages instructions per cycle.
     */
    std::uint32_t fetchQueueCap = 64;
    /** Front-end stages between fetch and dispatch (11-deep pipe). */
    std::uint32_t decodeStages = 5;

    std::uint32_t dispatchWidth = 8;
    std::uint32_t intIssueWidth = 8;
    std::uint32_t fpIssueWidth = 4;
    std::uint32_t commitWidth = 8;

    std::uint32_t intIqSize = 64;
    std::uint32_t fpIqSize = 32;
    std::uint32_t robPerThread = 256;
    std::uint32_t intRegs = 384;
    std::uint32_t fpRegs = 384;
    /** Architectural registers reserved per thread per bank. */
    std::uint32_t archRegsPerThread = 32;
    std::uint32_t lqSize = 64;
    std::uint32_t sqSize = 64;

    std::uint32_t intAluUnits = 6;
    std::uint32_t intMultUnits = 6;
    std::uint32_t fpAluUnits = 2;
    std::uint32_t fpMultUnits = 2;
    /** L1-D ports shared by loads and the store buffer. */
    std::uint32_t cachePorts = 2;

    Cycle mispredictPenalty = 9;
    /** Retired-store buffer entries between commit and the L1D. */
    std::uint32_t writeBufferCap = 8;

    void validate() const;

    bool operator==(const CoreConfig &) const = default;
};

} // namespace smtdram

#endif // SMTDRAM_CPU_CPU_CONFIG_HH
