/**
 * @file
 * Top-level multi-channel DRAM memory system.
 *
 * Owns the address mapping and one MemoryController per logical
 * channel, routes requests, delivers read completions through a
 * callback, and aggregates the statistics the paper's figures need
 * (row-buffer hit rates, concurrency distributions, latencies).
 */

#ifndef SMTDRAM_DRAM_DRAM_SYSTEM_HH
#define SMTDRAM_DRAM_DRAM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "dram/address_mapping.hh"
#include "dram/checker.hh"
#include "dram/dram_config.hh"
#include "dram/dram_types.hh"
#include "dram/memory_controller.hh"
#include "dram/memory_port.hh"
#include "dram/scheduler.hh"

namespace smtdram
{

/** Multi-channel DRAM system facade. */
class DramSystem : public MemoryPort
{
  public:
    using ReadCallback = MemoryPort::ReadCallback;

    /**
     * @param channel_base global index of this system's first channel.
     *        0 for the single-socket machine; socket s of a NUMA
     *        topology passes s * logicalChannels() so trace pids,
     *        dump labels and fault seeds stay distinct per socket.
     */
    DramSystem(const DramConfig &config, SchedulerKind scheduler,
               std::uint32_t channel_base = 0);

    /** True if the target channel can queue another request. */
    bool canAccept(Addr addr, MemOp op) const override;

    /**
     * Queue a read for @p addr on behalf of @p thread.
     * @return the request id (also reported at completion).
     */
    std::uint64_t enqueueRead(Addr addr, ThreadId thread,
                              const ThreadSnapshot &snap, Cycle now,
                              bool critical = true) override;

    /**
     * Remote-aware overload used by the topology router: the request
     * arrives now (latency accrues from the issuing core's clock) but
     * may not issue before @p remote_until — the cycles in between are
     * blamed on BlameComponent::RemoteAccess.  @p origin (the issuing
     * core) rides on the request as DramRequest::origin.
     */
    std::uint64_t enqueueRead(Addr addr, ThreadId thread,
                              const ThreadSnapshot &snap, Cycle now,
                              bool critical, Cycle remote_until,
                              std::uint32_t origin);

    /** Queue a (writeback) write; completes silently. */
    std::uint64_t enqueueWrite(Addr addr, Cycle now) override;

    /** Remote-aware overload (see the read counterpart). */
    std::uint64_t enqueueWrite(Addr addr, Cycle now, Cycle remote_until);

    /** Advance all channels to cycle @p now; fires read callbacks. */
    void tick(Cycle now);

    /**
     * True when tick(@p now) would do no work: every controller idle
     * (see MemoryController::idleAt) and no scrub burst due.  Lets
     * tick() return immediately during compute-bound phases.
     */
    bool
    idleAt(Cycle now) const
    {
        for (const ScrubState &s : scrub_) {
            if (now >= s.nextAt)
                return false;
        }
        for (const MemoryController &mc : controllers_) {
            if (!mc.idleAt(now))
                return false;
        }
        return true;
    }

    /**
     * Earliest cycle > @p now at which tick() could do anything: the
     * min over every channel's MemoryController::nextEventAt and the
     * per-channel patrol-scrub deadlines.  kCycleNever when the whole
     * memory system is quiescent.  The checker's amortized age scan
     * is deliberately not an event source — every scan of a healthy
     * run passes, so its cadence is unobservable (see DESIGN.md §14).
     */
    Cycle nextEventAt(Cycle now) const;

    /** Called once per completed read, in completion order. */
    void
    setReadCallback(ReadCallback cb) override
    {
        readCallback_ = std::move(cb);
    }

    bool busy() const;

    /** Queued + in-flight requests across all channels. */
    size_t outstandingRequests() const;

    /** Outstanding thread-owned (read) requests per thread id. */
    const std::vector<std::uint32_t> &
    outstandingPerThread() const
    {
        return perThreadOutstanding_;
    }

    /** Number of distinct threads with outstanding requests. */
    std::uint32_t distinctThreadsOutstanding() const;

    const DramConfig &config() const { return config_; }
    std::uint32_t channels() const;

    /** One channel's controller: its stats, queues and power ranks. */
    const MemoryController &channel(std::uint32_t c) const;

    /** Sum of all per-channel stats. */
    ControllerStats aggregateStats() const;

    /** Sum of all per-channel injected-fault stats. */
    FaultStats aggregateFaultStats() const;

    /** Sum of all per-channel rowhammer stats. */
    HammerStats aggregateHammerStats() const;

    /** Victim rows currently carrying at least one flipped bit. */
    std::uint64_t hammerFlippedRows() const;

    /** Sum of all per-channel energy/power stats. */
    PowerStats aggregatePowerStats() const;

    /**
     * Bring every channel's background-energy accounting current to
     * cycle @p now.  Call before reading power stats; pure
     * bookkeeping, never changes timing.
     */
    void syncPower(Cycle now);

    /** @param now stats-boundary cycle; anchors background-energy
     *         accounting for the new measurement window. */
    void resetStats(Cycle now = 0);

    /**
     * Attach a lifecycle tracer (not owned; nullptr detaches) and
     * announce the per-channel/per-bank track names.
     */
    void setTracer(Tracer *tracer);

    /** Demand reads delivered per thread id (bandwidth shares). */
    const std::vector<std::uint64_t> &
    perThreadReads() const
    {
        return perThreadReads_;
    }

    /** Shadow checker, or nullptr when config.checkerEnabled is off. */
    const ConservationChecker *checker() const { return checker_.get(); }

    /** Dump every channel's state (watchdog/checker diagnostics). */
    void dumpState(std::ostream &os) const;

  private:
    /**
     * The one admission path, for demand and maintenance traffic
     * alike: give @p req (kind, coordinates and payload already set)
     * the next id and arrival @p now, register it with the checker,
     * queue it at its channel and count it outstanding.
     * @return the assigned id.
     */
    std::uint64_t submit(DramRequest &req, Cycle now);

    /**
     * Inject due patrol-scrub reads.  Generation lives here, not in
     * the controller, so scrub requests enter through submit() like
     * demand traffic and conservation covers them.
     */
    void serviceScrub(Cycle now);

    /**
     * Materialize preventive refreshes the aggressor trackers have
     * requested.  Like scrub, generation lives here so mitigation
     * commands enter through submit() like demand traffic.
     */
    void serviceMitigations(Cycle now);

    /** Per-channel patrol-scrub pacing and address cursor. */
    struct ScrubState {
        Cycle nextAt = 0;
        std::uint32_t bank = 0;
        std::uint32_t row = 0;
        std::uint32_t column = 0;
    };

    DramConfig config_;
    AddressMapping mapping_;
    std::vector<MemoryController> controllers_;
    ReadCallback readCallback_;
    std::uint64_t nextId_ = 1;
    std::vector<std::uint32_t> perThreadOutstanding_;
    std::vector<std::uint64_t> perThreadReads_;
    /** Queued + in-flight across all controllers, maintained at the
     *  enqueue/completion boundaries so the per-cycle busy() and
     *  Figure 4/5 sampling never sum queue sizes; cross-checked
     *  against the queues on every checker age scan. */
    std::size_t outstanding_ = 0;
    std::vector<DramRequest> completedScratch_;
    std::unique_ptr<ConservationChecker> checker_;
    Cycle lastAgeCheck_ = 0;
    std::vector<ScrubState> scrub_;
    /** Reused by serviceMitigations() (no per-tick allocation). */
    std::vector<MitigationRequest> mitigationScratch_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_DRAM_SYSTEM_HH
