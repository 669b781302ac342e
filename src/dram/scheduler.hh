/**
 * @file
 * Memory access scheduling policies (Sections 3 and 5.5).
 *
 * Every policy is one ordering rule over the candidates a channel can
 * issue this cycle, written as a lexicographic key (smaller wins):
 *
 *  - FCFS: reads (and maintenance) before writes, then arrival order;
 *  - Hit-first: row-buffer hits, then idle banks, then conflicts;
 *    read-first within each; then arrival order;
 *  - Age-based: hit-first, but when more than eight requests are
 *    queued the oldest request is served first;
 *  - Criticality (Section 3.1): hit-first and read-first, then
 *    requests the processor is stalled on before the rest.
 *
 * The thread-aware policies (the paper's contribution) keep hit-first
 * and read-first as the leading criteria, then break ties with thread
 * state piggybacked on each request:
 *  - Request-based: fewest outstanding memory requests first;
 *  - ROB-based: most reorder-buffer entries held first;
 *  - IQ-based: most integer issue-queue entries held first.
 *
 * Arrival and then the request id close every key, so the choice is
 * total and never depends on the order the candidates were gathered.
 */

#ifndef SMTDRAM_DRAM_SCHEDULER_HH
#define SMTDRAM_DRAM_SCHEDULER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_types.hh"

namespace smtdram
{

/** Identifiers for the built-in scheduling policies. */
enum class SchedulerKind : std::uint8_t {
    Fcfs,
    HitFirst,
    AgeBased,
    RequestBased,
    RobBased,
    IqBased,
    /**
     * Criticality-based (Section 3.1): requests carrying a word the
     * processor is waiting on (demand loads / instruction fetches)
     * outrank non-critical traffic (store fills, prefetches) within
     * their hit/read class.  Listed by the paper among known
     * single-thread policies; not part of Figure 10's sweep.
     */
    CriticalityBased,
};

/** The Figure 10 policies, in the paper's order. */
const std::vector<SchedulerKind> &allSchedulerKinds();

/** Every policy, including extensions beyond Figure 10. */
const std::vector<SchedulerKind> &allSchedulerKindsExtended();

/** Short name used in bench output ("FCFS", "Hit-first", ...). */
std::string schedulerName(SchedulerKind kind);

/** Parse a scheduler name (case-insensitive); fatal()s on garbage. */
SchedulerKind schedulerFromName(const std::string &name);

/** View of a queued request the scheduler may rank. */
struct SchedCandidate {
    const DramRequest *req = nullptr;
    bool rowHit = false;    ///< would hit the currently open row
    bool bankIdle = false;  ///< bank precharged, no conflict
    /** Position in the queue of the request's kind, so the winner is
     *  removed by position instead of re-scanning the queue. */
    std::uint32_t queueIndex = 0;
};

/**
 * Choose which of @p candidates (never empty) policy @p kind serves
 * next.  Stateless; all inputs arrive via the candidates.
 * @param queued total requests queued at the channel, used by
 *        pressure-triggered policies such as age-based.
 * @return index into @p candidates.
 */
size_t pickCandidate(SchedulerKind kind,
                     const std::vector<SchedCandidate> &candidates,
                     size_t queued);

} // namespace smtdram

#endif // SMTDRAM_DRAM_SCHEDULER_HH
