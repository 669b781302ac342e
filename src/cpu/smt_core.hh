/**
 * @file
 * The simultaneous-multithreading out-of-order core.
 *
 * Structure follows the extended Sim-Alpha model of Section 4.1:
 * every active thread has its own PC, fetch buffer, ROB, and return
 * stack; threads share fetch/dispatch/issue/commit bandwidth, the
 * issue queues, physical registers, LSQ, functional units, and the
 * whole cache hierarchy.
 *
 * Stage order inside cycle():
 *   commit -> complete -> issue -> dispatch -> fetch
 * so an instruction spends at least one cycle in each structure.
 *
 * Branch handling uses the standard stream-driven simplification:
 * mispredicted branches stall their thread's fetch until the branch
 * resolves plus the 9-cycle redirect penalty, instead of fetching a
 * wrong path that a synthetic stream cannot supply.  The cost model
 * (lost fetch slots proportional to resolution depth) matches the
 * squash-based one.
 */

#ifndef SMTDRAM_CPU_SMT_CORE_HH
#define SMTDRAM_CPU_SMT_CORE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/bounded_fifo.hh"
#include "common/flat_u64_map.hh"
#include "common/stats.hh"
#include "common/trace_event.hh"
#include "common/types.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/cpu_config.hh"
#include "cpu/fetch_policy.hh"
#include "cpu/instruction.hh"

namespace smtdram
{

/** Aggregated per-thread performance counters. */
struct ThreadPerf {
    std::uint64_t committedInsts = 0;
    std::uint64_t fetchedInsts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
};

/** The SMT processor core. */
class SmtCore
{
  public:
    SmtCore(const CoreConfig &config, Hierarchy &hierarchy);

    /** Attach thread @p tid's instruction source (not owned).
     *  nullptr parks the slot: fetch stops, in-flight work drains,
     *  and the slot's open fetch-stall trace span closes. */
    void bindStream(ThreadId tid, InstStream *stream);

    /**
     * True when slot @p tid holds no architectural state worth
     * moving: empty ROB and fetch queue, no stashed op, no
     * unresolved branch.  A parked thread (stream unbound) drains to
     * this state in bounded time; the OS migration engine waits for
     * it before rebinding the thread on another core.
     */
    bool quiescent(ThreadId tid) const;

    /**
     * Land a migrated thread on this core: bind @p stream to slot
     * @p tid and hold fetch until @p resume_at (the migration cost —
     * the pipeline-refill the move costs on a real machine).  The
     * slot must be quiescent.
     */
    void migrateIn(ThreadId tid, InstStream *stream, Cycle resume_at);

    /** Simulate one cycle at time @p now. */
    void cycle(Cycle now);

    /**
     * Earliest cycle > @p now at which cycle() could do anything
     * beyond bumping the rotation counters, assuming no external
     * input (cache-fill events, DRAM completions) arrives first —
     * those are covered by the system-level event sources.  Returns
     * now + 1 whenever any stage has actionable work next cycle
     * (committable ROB head, non-empty ready list — including a
     * blocked load's replay, dispatch awake, fetchable thread,
     * pending write buffer); otherwise the min over the future
     * wake-ups the core itself knows (FU completions, dispatch's wake
     * cycle, redirect fetchResumeAt); kCycleNever if it is fully
     * quiescent.  Cycles in between are provably no-ops except the
     * rotation counters, which skipCycles() replays exactly.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account @p count skipped no-op cycles following the last one
     * stepped: advances cyclesRun_ and the fetch/dispatch/commit
     * rotation counters exactly as @p count idle cycle() calls would
     * have, so round-robin tie-breaking after the skip is
     * bit-identical to the per-cycle kernel.  With a tracer attached
     * it also opens the fetch-stall spans the first skipped cycle's
     * fetchStage() would have opened; state is frozen across the
     * skip, so no later skipped cycle opens or closes one.
     */
    void skipCycles(std::uint64_t count);

    const CoreConfig &config() const { return config_; }

    const ThreadPerf &perf(ThreadId tid) const { return perf_[tid]; }

    /**
     * Commits across all threads, maintained incrementally at commit
     * so per-cycle progress checks need not sum per-thread counters.
     */
    std::uint64_t totalCommittedInsts() const { return totalCommitted_; }

    /** ROB entries currently held by @p tid. */
    std::uint32_t
    robOccupancy(ThreadId tid) const
    {
        return robOcc_[tid];
    }

    /** Integer issue-queue entries currently held by @p tid. */
    std::uint32_t
    intIqOccupancy(ThreadId tid) const
    {
        return intIqOcc_[tid];
    }

    /** Thread state piggybacked on DRAM requests (Section 3). */
    ThreadSnapshot snapshot(ThreadId tid) const;

    /** Cycles in which at least one integer instruction issued. */
    std::uint64_t intIssueActiveCycles() const
    {
        return intIssueActiveCycles_;
    }

    std::uint64_t cyclesRun() const { return cyclesRun_; }

    /** Largest ROB occupancy @p tid ever reached. */
    std::uint32_t robHighWater(ThreadId tid) const
    {
        return robHighWater_[tid];
    }

    /** Largest integer-IQ occupancy @p tid ever reached. */
    std::uint32_t intIqHighWater(ThreadId tid) const
    {
        return intIqHighWater_[tid];
    }

    /** Reset the high-water marks (measurement boundary). */
    void resetHighWater();

    /**
     * Attach a tracer (not owned; nullptr detaches): emits one async
     * span per thread covering every window in which fetch cannot
     * take that thread (I-cache miss, unresolved mispredict, redirect
     * penalty, full fetch queue).
     */
    void setTracer(Tracer *tracer);

  private:
    // ------------------------------------------------------------------
    /** A fetched instruction waiting in the decode pipe. */
    struct FetchedInst {
        MicroOp op;
        InstSeq seq = 0;
        Cycle readyAt = 0;        ///< earliest dispatch cycle
        bool mispredicted = false;
    };

    /** Null link in a producer's consumer chain. */
    static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};
    /** Null link in a completion-ring bucket. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** In-flight instruction state (ROB slot). */
    struct DynInst {
        MicroOp op;
        InstSeq seq = 0;
        /** Global dispatch order across threads: the issue priority. */
        std::uint64_t age = 0;
        /** Head of the chain of consumers waiting on this result.  A
         *  link is (consumer seq << 1) | source operand; dependences
         *  are intra-thread, so it names the consumer's ROB slot. */
        std::uint64_t consumers = kNoLink;
        /** Per source operand: the next link in its producer's chain. */
        std::uint64_t nextConsumer[2] = {kNoLink, kNoLink};
        /** Load only: the hierarchy resource generation its last cache
         *  probe blocked at, 0 when it is not gated. */
        std::uint64_t blockedGen = 0;
        /** Next entry of its completion-ring bucket, as a ROB slot
         *  index over every thread: (tid << robShift_) | ring position. */
        std::uint32_t nextDone = kNoSlot;
        enum class State : std::uint8_t {
            Empty,
            Waiting,   ///< in the issue queue
            Issued,    ///< executing / waiting on memory
            Completed,
        };
        State state = State::Empty;
        /** Producers not yet completed; 0 = on a ready list. */
        std::uint8_t pending = 0;
        bool mispredicted = false;
        bool isFp = false;
    };

    /** Per-thread architectural state. */
    struct ThreadState {
        InstStream *stream = nullptr;
        BoundedFifo<FetchedInst> fetchQueue;
        InstSeq nextSeq = 0;      ///< next fetch sequence number
        InstSeq robHead = 0;      ///< oldest in-flight seq
        InstSeq robTail = 0;      ///< next seq to dispatch
        std::vector<DynInst> rob; ///< ring buffer, robPerThread slots

        /** Fetch gates. */
        bool icacheBlocked = false;
        Cycle fetchResumeAt = 0;
        /** Set when fetch stalled behind an unresolved mispredict. */
        bool awaitingBranch = false;
        InstSeq awaitedBranchSeq = 0;
        /** Last I-cache line fetched (avoid re-probing per inst). */
        Addr lastFetchLine = kAddrInvalid;
        /** Op generated but not fetched due to a structural stall. */
        MicroOp stashedOp;
        bool stashedOpValid = false;
    };

    // --- pipeline stages ---------------------------------------------
    void commitStage();
    void completeStage(Cycle now);
    void issueStage(Cycle now);
    void dispatchStage(Cycle now);
    void fetchStage(Cycle now);
    void drainWriteBuffer(Cycle now);

    /** fetchStage's gate: can thread @p t be fetched from at @p now? */
    bool fetchable(const ThreadState &t, Cycle now) const;
    /** Open or close thread @p tid's fetch-stall trace span as
     *  @p can_fetch at @p now dictates (tracer attached only). */
    void traceFetchStall(ThreadId tid, bool can_fetch, Cycle now);

    /** Fetch up to @p budget instructions from thread @p tid. */
    std::uint32_t fetchFromThread(ThreadId tid, std::uint32_t budget,
                                  Cycle now);

    DynInst &robSlot(ThreadId tid, InstSeq seq);
    const DynInst &robSlot(ThreadId tid, InstSeq seq) const;

    /** Chain source @p operand of the just-dispatched @p c onto the
     *  producer @p dist back, when that producer can still gate
     *  issue (in flight, value-producing, not yet completed). */
    void linkProducer(ThreadId tid, DynInst &c, unsigned operand,
                      std::uint8_t dist);

    /** Put @p c, whose last producer just completed, on its ready
     *  list at its age position. */
    void makeReady(ThreadId tid, const DynInst &c);

    void markCompleted(ThreadId tid, InstSeq seq, Cycle now);

    /** File the just-issued @p slot of @p tid to complete at @p when. */
    void scheduleCompletion(ThreadId tid, DynInst &slot, Cycle now,
                            Cycle when);
    /** Earliest cycle with a pending completion (some must pend). */
    Cycle earliestCompletion() const;

    /** Wait for miss @p miss_id: a load (@p seq) or an I-fetch. */
    void addMissWaiter(std::uint64_t miss_id, ThreadId tid, InstSeq seq,
                       bool is_fetch);
    void onMissComplete(std::uint64_t miss_id, Cycle when);

    // ------------------------------------------------------------------
    CoreConfig config_;
    Hierarchy &hierarchy_;
    BranchPredictor predictor_;

    std::vector<ThreadState> threads_;
    std::vector<ThreadPerf> perf_;
    /** Sum of perf_[*].committedInsts, updated at commit. */
    std::uint64_t totalCommitted_ = 0;

    /**
     * The issue queues hold no list of their own: an entry is a ROB
     * slot in state Waiting.  One with pending producers sits on
     * their consumer chains (linked at dispatch); markCompleted walks
     * a producer's chain, and a consumer whose count reaches 0 joins
     * its class's ready list.  The ready lists are kept in global
     * dispatch age order — the order the issue stage visits entries
     * in — and hold at most an IQ's worth, so they never reallocate.
     * A ready entry that cannot issue (width, unit, port, blocked
     * probe) stays on its list.
     */
    struct ReadyRef {
        std::uint64_t age;
        InstSeq seq;
        ThreadId tid;
    };
    std::vector<ReadyRef> intReady_;
    std::vector<ReadyRef> fpReady_;
    std::uint64_t nextAge_ = 0;
    /** Issue-queue capacity in use (sums of the per-thread counts). */
    std::uint32_t intIqUsed_ = 0;
    std::uint32_t fpIqUsed_ = 0;
    std::vector<std::uint32_t> intIqOcc_;
    std::vector<std::uint32_t> fpIqOcc_;
    std::vector<std::uint32_t> robOcc_;

    std::uint32_t freeIntRegs_;
    std::uint32_t freeFpRegs_;
    std::uint32_t lqUsed_ = 0;
    std::uint32_t sqUsed_ = 0;

    /**
     * FU completions: a calendar ring of per-cycle buckets, each an
     * intrusive list of ROB slots threaded through DynInst::nextDone.
     * The ring is a power of two longer than the longest issue-to-
     * complete delay, so every pending completion lies in
     * [doneFrom_, doneFrom_ + ring size) and owns its bucket's cycle.
     * Order within a bucket cannot matter: completing an entry only
     * marks its slot, files its woken consumers into the ready lists
     * at their (unique) age positions, and sets a redirect time from
     * the current cycle alone, so any order leaves the same state.
     */
    std::vector<std::uint32_t> doneHead_;
    /** Bit per bucket: non-empty. */
    std::vector<std::uint64_t> doneBusy_;
    std::uint32_t donePending_ = 0;
    /** First cycle completeStage() has not drained yet. */
    Cycle doneFrom_ = 0;
    /** log2(robPerThread), for DynInst::nextDone indices. */
    unsigned robShift_;

    /** Outstanding load / I-fetch cache misses keyed by miss id.
     *  Bounded by lqSize + numThreads: a waiting load holds an LQ
     *  entry, and a thread has at most one I-fetch miss (fetch stops
     *  until it fills), so the reserved table never grows. */
    struct MissWaiter {
        ThreadId tid = 0;
        bool isFetch = false;
        InstSeq seq = 0;
    };
    FlatU64Map<MissWaiter> missWaiters_;

    /** Retired stores on their way to the L1D. */
    struct PendingStore {
        ThreadId tid;
        Addr vaddr;
    };
    BoundedFifo<PendingStore> writeBuffer_;

    /** Resource generation the write-buffer head last blocked at, 0
     *  when it is not gated (see Hierarchy::resourceGeneration). */
    std::uint64_t wbBlockedGen_ = 0;

    /** False while no ROB head can commit: set by a completion or a
     *  freed write-buffer slot, cleared by a pass that left commit
     *  width unused (every thread was stalled). */
    bool commitPending_ = true;

    /** First cycle dispatch can move: after a pass that left width
     *  unused, the earliest still-decoding fetch-queue front (never,
     *  with every queue empty, as at reset).  Reset to 0 when commit
     *  or issue frees a resource or a pass runs out of width, and
     *  lowered when fetch fills an empty queue. */
    Cycle dispatchWakeAt_ = kCycleNever;

    std::uint64_t fetchRotation_ = 0;
    std::uint64_t commitRotation_ = 0;
    std::uint64_t dispatchRotation_ = 0;
    std::uint64_t cyclesRun_ = 0;
    /** Last cycle stepped by cycle() or accounted by skipCycles(). */
    Cycle lastCycle_ = 0;
    std::uint64_t intIssueActiveCycles_ = 0;

    std::vector<std::uint32_t> robHighWater_;
    std::vector<std::uint32_t> intIqHighWater_;

    Tracer *tracer_ = nullptr;
    /** Cycle each thread's current fetch-stall span opened, or
     *  kCycleNever when the thread is fetchable (trace-only state). */
    std::vector<Cycle> fetchStallSince_;

    // --- Per-cycle stage scratch.  Members (not locals) so the
    //     fetch/dispatch loops never allocate at steady state; each
    //     stage fully rewrites its buffer before reading it.  Member
    //     (not function-static) because the parallel runner ticks one
    //     SmtCore per worker thread. ---
    /** dispatchStage: threads that already stalled this cycle. */
    std::vector<std::uint8_t> dispatchStalled_;
    /** fetchStage: per-thread policy inputs rebuilt each cycle. */
    std::vector<FetchThreadState> fetchStates_;
    /** fetchStage: thread pick order from the fetch policy. */
    std::vector<ThreadId> fetchOrder_;
};

} // namespace smtdram

#endif // SMTDRAM_CPU_SMT_CORE_HH
