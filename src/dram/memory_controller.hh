/**
 * @file
 * Per-logical-channel memory controller.
 *
 * Transaction-level timing model.  Each cycle the controller may
 * launch at most one new transaction, chosen by pickCandidate() under
 * the configured policy among queued requests whose bank is free.  A
 * transaction occupies its bank for the whole precharge/activate/
 * column sequence and the shared channel data bus only during the
 * burst, so transactions to different banks pipeline.
 *
 * Requests wait in one queue per RequestKind.  Demand reads and
 * rowhammer preventive refreshes always compete.  Write handling
 * implements the read-first rule globally: writes are eligible only
 * when nothing else is, or when the write queue passes its high
 * watermark, in which case the controller drains writes down to the
 * low watermark (they still compete under the policy's ordering).
 *
 * ECC patrol-scrub reads sit below all of them: they issue only when
 * nothing else can, except that a scrub read older than a
 * bounded-staleness deadline competes at demand priority so sustained
 * load cannot stall patrol progress forever.
 *
 * Data layout (see DESIGN.md section 16): command timings come from a
 * TimingTable precomputed at construction, bank state is
 * structure-of-arrays with a readiness bitset, and requests live in a
 * slab pool — the queues hold generation-checked handles, so the
 * enqueue→complete lifecycle allocates nothing at steady state.
 */

#ifndef SMTDRAM_DRAM_MEMORY_CONTROLLER_HH
#define SMTDRAM_DRAM_MEMORY_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hh"
#include "common/trace_event.hh"
#include "dram/bank_state.hh"
#include "dram/dram_config.hh"
#include "dram/dram_types.hh"
#include "dram/fault_injector.hh"
#include "dram/power_model.hh"
#include "dram/request_pool.hh"
#include "dram/row_hammer.hh"
#include "dram/scheduler.hh"
#include "dram/timing_table.hh"

namespace smtdram
{

/** Aggregated controller statistics. */
struct ControllerStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowEmpty = 0;     ///< bank idle (precharged) accesses
    std::uint64_t rowConflicts = 0; ///< open row had to be precharged
    LogHistogram readLatency;       ///< arrival to data return, cycles
    LogHistogram readQueueing;      ///< arrival to issue, cycles
    std::uint64_t busBusyCycles = 0;
    std::uint64_t refreshes = 0;    ///< per-bank refresh commands issued
    /** Cycles banks spent unavailable inside refresh (tRFC each). */
    std::uint64_t refreshBlockedCycles = 0;
    /** Transactions re-executed after an injected transient error. */
    std::uint64_t readRetries = 0;
    /**
     * Reads whose retry budget ran out.  With ECC off they are still
     * delivered (legacy behavior, auditable through this counter and
     * dumpState()); with ECC on they are delivered poisoned and also
     * count into uncorrectableErrors.
     */
    std::uint64_t retriesExhausted = 0;
    /** ECC patrol-scrub transactions executed. */
    std::uint64_t scrubReads = 0;
    /** Reads delivered after a transparent single-bit SECDED fix-up. */
    std::uint64_t correctedErrors = 0;
    /** Reads delivered poisoned (detected uncorrectable error). */
    std::uint64_t uncorrectableErrors = 0;
    /** Extra data-bus cycles spent moving SECDED check bits. */
    std::uint64_t eccCheckCycles = 0;

    // --- Distribution views (Figures 4-10 are distribution claims;
    //     count/sum/min/max alone cannot answer them) ---
    /** The same samples as readLatency, under the name perfbench
     *  merges (ROADMAP item 1 folds the two). */
    LogHistogram readLatencyHist;
    /** Read-queue depth observed at each enqueue. */
    LogHistogram queueDepthHist;
    /** Consecutive row-buffer hits per bank before a miss ends the
     *  run (locality the schedulers and mappings compete over). */
    LogHistogram rowHitRunHist;

    // --- Latency blame attribution (see blame.hh) ---
    /**
     * Per-component cycle totals over demand reads, accumulated at
     * launch in lockstep with readLatency so
     * blameTotals.sum() == readLatency.sum() exactly, including
     * retried attempts and requests still in flight at run end.
     */
    LatencyBlame blameTotals;
    /** Per-component latency distribution over demand reads, sampled
     *  at launch alongside readLatencyHist. */
    std::array<LogHistogram, kNumBlameComponents> blameHist;
    /**
     * Per-thread breakdown over *completed* demand reads (retire-time,
     * final attempt only, indexed by ThreadId) — the DRAM-side CPI
     * stack, and the reference the interference row-sum invariant is
     * stated against.
     */
    std::vector<LatencyBlame> perThreadBlame;
    /** Who stalled whom, in cycles (demand reads only). */
    InterferenceMatrix interference;

    /** Accumulate @p other (another channel's or socket's stats). */
    void merge(const ControllerStats &other);

    /** Paper's row-buffer miss rate: misses / all accesses. */
    double
    rowMissRate() const
    {
        const std::uint64_t total = rowHits + rowEmpty + rowConflicts;
        return total ? static_cast<double>(rowEmpty + rowConflicts) /
                           total
                     : 0.0;
    }
};

/** One logical channel: banks, bus, queues, and a scheduler. */
class MemoryController
{
  public:
    /** @param channel logical-channel index, used only to diversify
     *         the fault-injection seed and label state dumps. */
    MemoryController(const DramConfig &config, SchedulerKind scheduler,
                     std::uint32_t channel = 0);

    bool
    canAcceptRead() const
    {
        return queuedReads() < config_.readQueueCap;
    }

    bool
    canAcceptWrite() const
    {
        return queue(RequestKind::Write).size() < config_.writeQueueCap;
    }

    /** Queue a mapped request.  coord.channel must equal this one. */
    void enqueue(DramRequest req);

    /**
     * Advance to cycle @p now: complete finished transactions and
     * possibly launch one new one.  Completed requests (reads and
     * writes) are appended to @p completed.
     */
    void tick(Cycle now, std::vector<DramRequest> &completed);

    /** Queued plus in-flight transactions. */
    size_t outstanding() const { return queued() + inFlight_.size(); }

    size_t queuedReads() const { return queue(RequestKind::Read).size(); }
    size_t queuedScrubs() const { return queue(RequestKind::Scrub).size(); }

    /**
     * Hand the preventive refreshes the aggressor tracker has
     * requested (appended to @p out, internal list cleared).  The
     * DRAM system turns each into a maintenance DramRequest so ids
     * and conservation checking stay centralized, mirroring how
     * patrol-scrub traffic is generated.
     */
    void
    takePendingMitigations(std::vector<MitigationRequest> &out)
    {
        out.insert(out.end(), pendingMitigations_.begin(),
                   pendingMitigations_.end());
        pendingMitigations_.clear();
    }

    /** True if the tracker has refreshes awaiting materialization. */
    bool
    hasPendingMitigations() const
    {
        return !pendingMitigations_.empty();
    }

    bool busy() const { return outstanding() > 0; }

    /**
     * Earliest cycle > @p now at which tick() could do anything —
     * exactly the first cycle a transaction retires, a refresh
     * deadline can fire, or a queued request becomes a scheduling
     * candidate; kCycleNever when fully idle.  Returns now + 1
     * whenever the clock must be stepped for real (active fault
     * injector drawing per-cycle RNG, un-materialized mitigation
     * requests, or any already-actionable work).  The event-driven
     * kernel never skips past this bound, and every cycle strictly
     * before it is provably a controller no-op.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * True when tick(@p now) would be a no-op: nothing queued or in
     * flight, no refresh due, and no fault injector drawing random
     * numbers every cycle (skipping a tick then would desync the RNG
     * stream and change results).  O(1); the DRAM-system idle
     * fast-path calls this every cycle.
     */
    bool
    idleAt(Cycle now) const
    {
        return !injector_.active() && inFlight_.empty() &&
               queued() == 0 && pendingMitigations_.empty() &&
               (!config_.refreshEnabled() || now < nextRefreshDue_);
    }

    const ControllerStats &stats() const { return stats_; }

    /** @param now stats-boundary cycle anchoring background-energy
     *         accounting; 0 keeps the historical behavior for tests
     *         that reset before the clock moves. */
    void
    resetStats(Cycle now = 0)
    {
        stats_ = ControllerStats();
        injector_.resetStats();
        hammer_.resetStats();
        power_.reset(now);
    }

    /** Faults actually injected into this channel so far. */
    const FaultStats &faultStats() const { return injector_.stats(); }

    /** Rowhammer disturbance/mitigation activity on this channel. */
    const HammerStats &hammerStats() const { return hammer_.stats(); }

    /** The channel's disturbance model (tests poke at flips). */
    RowHammerModel &hammerModel() { return hammer_; }
    const RowHammerModel &hammerModel() const { return hammer_; }

    /** Energy/power accounting of this channel (always on). */
    const PowerStats &powerStats() const { return power_.stats(); }

    /** Total energy attributed to one rank so far, nJ. */
    double rankEnergy(std::uint32_t rank) const
    {
        return power_.rankEnergy(rank);
    }

    /** Ranks (chip groups) on this channel. */
    std::uint32_t powerRanks() const { return power_.ranks(); }

    /** Lazily evaluated power state of one rank at @p now. */
    PowerState
    rankPowerState(std::uint32_t rank, Cycle now) const
    {
        return power_.stateAt(rank, now);
    }

    /**
     * Bring background-energy and state-residency accounting current
     * to cycle @p now.  Pure bookkeeping: never changes timing, safe
     * to call at any cadence (epoch sampling, run end, post-mortem).
     */
    void syncPower(Cycle now) { power_.sync(now); }

    /**
     * Attach a request-lifecycle tracer (not owned; nullptr detaches).
     * With no tracer every instrumentation site is one branch on a
     * null pointer, so default runs stay bit-identical.
     */
    void setTracer(Tracer *tracer);

    /**
     * Write a human-readable snapshot of all controller state (bus,
     * banks, queues, in-flight transactions) — the payload of the
     * watchdog/checker diagnostics on a stuck simulation.
     */
    void dumpState(std::ostream &os) const;

  private:
    /** A launched transaction, ordered by completion time. */
    struct InFlightRef {
        Cycle completion;
        ReqHandle h;
    };

    /**
     * A queued transaction: the pool handle plus copies of the fields
     * the per-cycle scans (candidate gathering, bank-window blame,
     * nextEventAt) filter on.  All four are immutable while the entry
     * sits in its kind's queue — bank/row/arrival never change, and
     * notBefore is only written before joinQueue() builds the entry
     * (at enqueue and at retry re-queue) — so a scan touches the
     * pooled request only for entries that survive the filters.
     */
    struct QueuedRef {
        ReqHandle h;
        std::uint32_t bank;
        std::uint32_t row;
        Cycle arrival;
        Cycle notBefore;
    };

    const std::vector<QueuedRef> &
    queue(RequestKind kind) const
    {
        return queues_[kindIndex(kind)];
    }
    std::vector<QueuedRef> &
    queue(RequestKind kind)
    {
        return queues_[kindIndex(kind)];
    }

    /** Requests waiting in any queue. */
    size_t
    queued() const
    {
        size_t n = 0;
        for (const std::vector<QueuedRef> &q : queues_)
            n += q.size();
        return n;
    }

    /**
     * Put pooled request @p h at the back of its kind's queue at
     * cycle @p now (its arrival, or the retry's re-queue): account
     * the bank and bus-gate windows already standing against it, then
     * cache its scan fields in the entry.  Enforces no cap.
     */
    void joinQueue(ReqHandle h, Cycle now);

    /** Launch the best eligible transaction, if any. */
    void tryIssue(Cycle now);

    /**
     * Collect policy candidates from @p kind's queue.  Only entries
     * older than @p min_age cycles qualify (0 admits all; scrub
     * escalation passes its staleness deadline).
     */
    void gatherCandidates(RequestKind kind, Cycle now, Cycle min_age,
                          std::vector<SchedCandidate> &out) const;

    /** Execute the chosen request's timing (in place in the pool). */
    void launch(ReqHandle h, Cycle now);

    /** Track launched request @p h until it retires at @p completion. */
    void addInFlight(ReqHandle h, Cycle completion);

    /**
     * Materialize a rank's power-state exit for a command at @p now:
     * account the idle window, close rows that precharge-powerdown
     * entry had precharged, restart refresh tracking after
     * self-refresh.  Returns the exit-latency penalty (0 when the
     * rank was already active or the machine is off).
     */
    Cycle wakeRank(std::uint32_t rank, Cycle now);

    /** Issue any due auto-refreshes to banks that are free. */
    void serviceRefresh(Cycle now);

    /** Retire transactions done by @p now, applying read-error faults. */
    void retire(Cycle now, std::vector<DramRequest> &completed);

    // --- Latency-blame attribution (bookkeeping only; see blame.hh).
    //     All helpers account analytic [blameUpTo, until) intervals at
    //     event points, so both kernels attribute identically. ---
    /**
     * Attribute @p r's lifetime up to @p until to @p cause (the slice
     * before r.notBefore goes to FaultRetry instead — retry backoff
     * and injected enqueue delay are never another thread's fault).
     * Occupancy-type causes on demand reads also feed the
     * interference matrix against @p owner.  Monotone in blameUpTo:
     * already-attributed cycles are never touched again.
     */
    void accountWaitUntil(DramRequest &r, Cycle until,
                          BlameComponent cause, ThreadId owner);
    /** Close the attribution gap up to @p now as scheduler deferral,
     *  then attribute the blocked window [now, end) to @p cause. */
    void accountBlocked(DramRequest &r, Cycle now, Cycle end,
                        BlameComponent cause, ThreadId owner);
    /** Attribute a freshly booked bank-busy window [now, readyAt) to
     *  every queued request targeting @p bank_index. */
    void accountBankWindow(std::uint32_t bank_index, Cycle now);
    /** Attribute the bus-gate window (bus booked so far ahead that
     *  tryIssue() refuses to launch) to every queued request. */
    void accountBusGate(Cycle now, BlameComponent cause,
                        ThreadId owner);

    DramConfig config_;
    std::uint32_t channel_;
    SchedulerKind scheduler_;
    FaultInjector injector_;
    /** Disturbance model + aggressor tracker (inert when off). */
    RowHammerModel hammer_;
    Tracer *tracer_ = nullptr;
    /** Flat command timings derived once from config_ (never changes
     *  after construction; every hot-path latency reads from here). */
    TimingTable table_;
    /** Per-bank state, field-major, with the readiness bitset. */
    BankStateSoA banks_;
    Cycle busFreeAt_ = 0;
    /** Thread whose burst last booked the bus (kThreadNone for
     *  writebacks/maintenance/injected stalls) — blame metadata. */
    ThreadId busOwner_ = kThreadNone;
    /** What a standing bus-gate window is attributed to: Queueing
     *  after a burst booking, FaultRetry after an injected stall. */
    BlameComponent busGateCause_ = BlameComponent::Queueing;

    /** Backing store for every queued or in-flight request; the
     *  queues below hold handles (plus scan-filter fields) into it. */
    RequestPool pool_;
    /** One queue per RequestKind, indexed by it. */
    std::array<std::vector<QueuedRef>, kNumRequestKinds> queues_;
    /** Refreshes the tracker requested but the system has not yet
     *  materialized into queued maintenance commands. */
    std::vector<MitigationRequest> pendingMitigations_;
    /** Launched transactions ordered by completion time. */
    std::vector<InFlightRef> inFlight_;
    bool drainingWrites_ = false;

    /** Reused by tryIssue() so the per-cycle hot path never allocates
     *  once the high-water capacity is reached. */
    std::vector<SchedCandidate> candidateScratch_;

    /** Earliest nextRefreshAt over all banks; lets idleAt() answer
     *  without scanning banks every cycle. */
    Cycle nextRefreshDue_ = kCycleNever;

    /** Always-on energy meter (timing-neutral) and per-rank
     *  low-power state machine (inert unless enabled). */
    PowerModel power_;

    ControllerStats stats_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_MEMORY_CONTROLLER_HH
