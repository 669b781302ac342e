/**
 * @file
 * The full memory hierarchy below the core: split L1s, unified L2 and
 * L3, TLBs, MSHRs, writeback path, and the interface to DramSystem.
 *
 * Model: a miss walks the tag arrays immediately (deciding whether it
 * will be served by L2, L3, or DRAM) but the *data* returns after the
 * appropriate latency — a fixed round trip for L2/L3 hits, or the
 * DRAM system's modelled completion for memory accesses.  Lines are
 * installed at fill time; dirty victims cascade outward and finally
 * become DRAM writes.
 *
 * Concurrency limits follow Table 1: each cache has 16 MSHRs; same-
 * line requests coalesce into one MSHR entry with multiple targets.
 * When a needed MSHR (or the DRAM queue) is full, the access reports
 * Blocked and the core retries — that back-pressure is what clogs the
 * pipeline on memory-intensive workloads.  A retry made while the
 * resource generation is unchanged cannot succeed, so the core
 * replays only its TLB lookup and blocked count (replayBlocked).
 */

#ifndef SMTDRAM_CACHE_HIERARCHY_HH
#define SMTDRAM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/cache_config.hh"
#include "cache/tlb.hh"
#include "common/event_queue.hh"
#include "common/flat_u64_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/memory_port.hh"

namespace smtdram
{

/** What kind of access the core is making. */
enum class AccessKind : std::uint8_t { InstFetch, Load, Store };

/** Which component will supply the data for a miss. */
enum class MissSource : std::uint8_t { L2, L3, Dram };

/** Outcome of Hierarchy::access(). */
struct AccessResult {
    enum class Status : std::uint8_t {
        Hit,      ///< data available after `latency` cycles
        Pending,  ///< completion delivered via callback with `missId`
        Blocked,  ///< structural hazard (MSHR/queue full): retry
    };
    Status status = Status::Blocked;
    Cycle latency = 0;          ///< valid for Hit (includes TLB penalty)
    std::uint64_t missId = 0;   ///< valid for Pending
    Cycle tlbPenalty = 0;       ///< informational
    /** Blocked only: the resourceGeneration() an MSHR or miss-table
     *  limit blocked at, or 0 when DRAM queue space blocked (that
     *  space frees without the hierarchy seeing it). */
    std::uint64_t blockedGen = 0;
};

/** The memory system below the core. */
class Hierarchy
{
  public:
    /** Fired once per completed miss target. */
    using MissCallback =
        std::function<void(std::uint64_t missId, Cycle when)>;
    /** Supplies the thread state piggybacked on DRAM requests. */
    using SnapshotProvider = std::function<ThreadSnapshot(ThreadId)>;

    Hierarchy(const HierarchyConfig &config, MemoryPort &dram,
              EventQueue &events, std::uint32_t num_threads);

    /**
     * Perform an access.  @p vaddr is a thread-virtual address; the
     * hierarchy translates it internally.
     */
    AccessResult access(AccessKind kind, ThreadId tid, Addr vaddr,
                        Cycle now);

    /**
     * Bumped by every change a Blocked access's checks read: an MSHR
     * or miss-table allocation, a coalesce that takes an L1 MSHR, a
     * prefetch allocation, a fill, a prewarm install.  Starts at 1.
     * An access that blocked with AccessResult::blockedGen equal to
     * the current value would block again at the same check.
     */
    std::uint64_t resourceGeneration() const { return generation_; }

    /**
     * Repeat an access that blocked at the current resourceGeneration()
     * without re-walking the hierarchy: only its side effects run —
     * the I/D-TLB lookup (LRU and hit/miss stats) and the blocked
     * count — so state evolves exactly as a real blocked access().
     */
    void replayBlocked(AccessKind kind, ThreadId tid, Addr vaddr);

    /** Register the completion callback (one per miss target). */
    void setMissCallback(MissCallback cb) { missCallback_ = std::move(cb); }

    void
    setSnapshotProvider(SnapshotProvider p)
    {
        snapshotProvider_ = std::move(p);
    }

    /** Drain pending writebacks into the DRAM write queue. */
    void tick(Cycle now);

    /**
     * Install the line containing @p vaddr into L3 and L2 (and L1D
     * when @p into_l1) with no timing and no stats — the structural
     * equivalent of the cache warm-up the paper performs during
     * fast-forwarding.  Victims are dropped (prewarmed lines are
     * clean).  prewarm() does the same for a whole warm state at
     * once; this per-line form stays because it works on a hierarchy
     * already in use, and it is the oracle prewarm() is tested
     * against (perfbench's traced machine also warms through it).
     */
    void prewarmLine(ThreadId tid, Addr vaddr, bool into_l1);

    /** One span of a thread's memory for prewarm(). */
    struct PrewarmRange {
        ThreadId tid = 0;
        Addr vaddr = 0;
        std::uint64_t bytes = 0;
        /** Into the L1D too, not only the L2 and L3. */
        bool intoL1 = false;
    };

    /**
     * Leave the hierarchy exactly as prewarmLine() would, called for
     * every line-sized step of every range in order (vaddr, vaddr +
     * line, ... below vaddr + bytes): the same tag arrays, page-table
     * state and resourceGeneration().  Each page of a range is
     * translated once and each array computes its final state
     * directly (CacheArray::warm), so the L1D, L2 and L3 must never
     * have been used and no line may repeat.
     */
    void prewarm(const std::vector<PrewarmRange> &ranges);

    /**
     * Allocate physical frames for [vstart, vstart+bytes) of @p tid
     * in ascending virtual order, without touching any cache state.
     * Mirrors a program initializing its arrays before the measured
     * region: each region gets a contiguous block of frames, which
     * is what gives regular array strides their DRAM-bank structure.
     * The thread's page table is sized for the region first, so it
     * grows at most once per region.
     */
    void preallocate(ThreadId tid, Addr vstart, std::uint64_t bytes);

    // --- Per-thread pressure counters used by fetch policies and
    //     thread-aware scheduling snapshots -------------------------

    /** Outstanding L1-D miss targets of @p tid (DG / DWarn input). */
    std::uint32_t
    pendingDataMisses(ThreadId tid) const
    {
        return pendingL1d_[tid];
    }

    /** Outstanding targets beyond L2 of @p tid (Fetch-stall input). */
    std::uint32_t
    pendingL2Misses(ThreadId tid) const
    {
        return pendingBeyondL2_[tid];
    }

    /** Outstanding main-memory read targets of @p tid. */
    std::uint32_t
    pendingDramReads(ThreadId tid) const
    {
        return pendingDram_[tid];
    }

    // --- Statistics ------------------------------------------------

    const CacheArray &l1i() const { return l1i_; }
    const CacheArray &l1d() const { return l1d_; }
    const CacheArray &l2() const { return l2_; }
    const CacheArray &l3() const { return l3_; }
    const Tlb &itlb() const { return itlb_; }
    const Tlb &dtlb() const { return dtlb_; }

    std::uint64_t dramReadsIssued() const { return dramReadsIssued_; }
    std::uint64_t dramWritesIssued() const { return dramWritesIssued_; }
    std::uint64_t blockedAccesses() const { return blockedAccesses_; }
    std::uint64_t coalescedTargets() const { return coalescedTargets_; }

    /** Next-line prefetches sent to DRAM. */
    std::uint64_t prefetchesIssued() const { return prefetchesIssued_; }
    /** Prefetched lines later referenced by a demand access. */
    std::uint64_t prefetchesUseful() const { return prefetchesUseful_; }

    size_t
    pendingWritebacks() const
    {
        return pendingWritebacks_.size();
    }

    /** Outstanding miss entries (lines in flight), all levels. */
    size_t outstandingLines() const { return missIndex_.size(); }

    void resetStats();

    const HierarchyConfig &config() const { return config_; }

    /**
     * Redirect translation to an externally owned page-table set.
     * The NUMA topology shares one PageTables (with a home-aware
     * frame allocator) across every core's hierarchy so a migrated
     * thread keeps its physical pages.  Call before any access.
     */
    void setSharedPageTables(PageTables *tables)
    {
        pt_ = tables ? tables : &pageTables_;
    }

  private:
    /** One coalescing target waiting on a line. */
    struct Target {
        std::uint64_t missId = 0;
        ThreadId tid = kThreadNone;
        AccessKind kind = AccessKind::Load;
        bool countsBeyondL2 = false;
        bool countsDram = false;
    };

    /** One line-granular miss in flight: a slot of missSlots_. */
    struct OutstandingMiss {
        MissSource source = MissSource::L2;
        bool fillL1i = false;
        bool fillL1d = false;
        bool dirtyOnFill = false;  ///< a store is among the targets
        bool prefetch = false;     ///< occupies a prefetch MSHR
        std::vector<Target> targets;
    };

    /** Count a blocked access; @p gen becomes its blockedGen. */
    AccessResult
    blocked(AccessResult res, std::uint64_t gen)
    {
        ++blockedAccesses_;
        res.blockedGen = gen;
        return res;
    }

    /** Issue a next-line prefetch for the demand miss at @p line. */
    void maybePrefetch(ThreadId tid, Addr demand_line, Cycle now);

    /** Walk the tag arrays to find where a missing line will hit. */
    MissSource classifyMiss(Addr line_addr) const;

    /** Install @p line_addr at fill time and cascade victims. */
    void handleFill(Addr line_addr, Cycle now);

    /** Run handleFill(@p line_addr) at cycle @p when.  The callback
     *  captures 16 bytes, which std::function stores inline. */
    void scheduleFill(Cycle when, Addr line_addr);

    /** Take a free miss slot for @p line_addr and index it. */
    OutstandingMiss &allocateMiss(Addr line_addr);

    /** Write a victim line into @p level (allocate-on-writeback). */
    void writebackInto(CacheArray &level, Addr line_addr, Cycle now);

    /** Queue a DRAM write, buffering if the channel is full. */
    void queueDramWrite(Addr line_addr, Cycle now);

    Addr
    lineAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.l1d.lineBytes - 1);
    }

    HierarchyConfig config_;
    MemoryPort &dram_;
    EventQueue &events_;

    PageTables pageTables_;
    /** Active page tables: the owned set above, or a shared one. */
    PageTables *pt_ = &pageTables_;
    Tlb itlb_;
    Tlb dtlb_;

    CacheArray l1i_;
    CacheArray l1d_;
    CacheArray l2_;
    CacheArray l3_;

    MissCallback missCallback_;
    SnapshotProvider snapshotProvider_;

    /**
     * The miss table: one slot per L1I, L1D and prefetch MSHR.  Every
     * live line holds at least one of those MSHRs (a demand miss takes
     * an L1 MSHR, a prefetch a prefetch MSHR) and gives them back
     * before its slot frees, so a slot is free whenever an allocation
     * passes its MSHR checks.  A slot keeps its targets' capacity and
     * is reused only after handleFill delivered its targets.
     */
    std::vector<OutstandingMiss> missSlots_;
    std::vector<std::uint32_t> freeMissSlots_;
    /** Line address -> slot of every line in flight. */
    FlatU64Map<std::uint32_t> missIndex_;
    std::uint32_t mshrUsedL1i_ = 0;
    std::uint32_t mshrUsedL1d_ = 0;
    std::uint32_t mshrUsedL2_ = 0;
    std::uint32_t mshrUsedL3_ = 0;

    std::deque<Addr> pendingWritebacks_;

    std::vector<std::uint32_t> pendingL1d_;
    std::vector<std::uint32_t> pendingBeyondL2_;
    std::vector<std::uint32_t> pendingDram_;

    std::uint64_t nextMissId_ = 1;
    std::uint64_t generation_ = 1;
    std::uint64_t dramReadsIssued_ = 0;
    std::uint64_t dramWritesIssued_ = 0;
    std::uint64_t blockedAccesses_ = 0;
    std::uint64_t coalescedTargets_ = 0;

    std::uint32_t mshrUsedPrefetch_ = 0;
    /** Lines brought in by prefetch, awaiting first demand use (the
     *  value is unused). */
    FlatU64Map<bool> prefetchedLines_;
    std::uint64_t prefetchesIssued_ = 0;
    std::uint64_t prefetchesUseful_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_HIERARCHY_HH
