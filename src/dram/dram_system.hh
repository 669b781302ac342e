/**
 * @file
 * The machine's multi-channel DRAM memory system.
 *
 * Owns the address mapping and one MemoryController per logical
 * channel, routes requests, delivers read completions through a
 * callback, and aggregates the statistics the paper's figures need
 * (row-buffer hit rates, concurrency distributions, latencies).
 *
 * Channels are grouped by home socket: socket s owns channels
 * [s * logicalChannels(), (s + 1) * logicalChannels()), each group
 * addressed by the same mapping.  Request ids, the conservation
 * checker and every aggregate cover the whole machine.  The
 * MemoryPort interface addresses socket 0.
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
     * @param sockets home sockets, config.logicalChannels() channels
     *        each; channels are numbered across the machine so trace
     *        pids, dump labels and fault seeds stay distinct.
     */
    DramSystem(const DramConfig &config, SchedulerKind scheduler,
               std::uint32_t sockets = 1);

    /** True if the target channel can queue another request. */
    bool
    canAccept(Addr addr, MemOp op) const override
    {
        return canAccept(0, addr, op);
    }

    /** canAccept() on socket @p home's channels. */
    bool canAccept(std::uint32_t home, Addr addr, MemOp op) const;

    /**
     * Queue a read for @p addr on behalf of @p thread.
     * @return the request id (also reported at completion).
     */
    std::uint64_t enqueueRead(Addr addr, ThreadId thread,
                              const ThreadSnapshot &snap, Cycle now,
                              bool critical = true) override;

    /**
     * The topology router's overload: queue on socket @p home.  The
     * request arrives now (latency accrues from the issuing core's
     * clock) but may not issue before @p remote_until — the cycles in
     * between are blamed on BlameComponent::RemoteAccess.  @p origin
     * (the issuing core) rides on the request as DramRequest::origin.
     */
    std::uint64_t enqueueRead(std::uint32_t home, Addr addr,
                              ThreadId thread, const ThreadSnapshot &snap,
                              Cycle now, bool critical, Cycle remote_until,
                              std::uint32_t origin);

    /** Queue a (writeback) write; completes silently. */
    std::uint64_t enqueueWrite(Addr addr, Cycle now) override;

    /** Socket @p home's overload (see the read counterpart). */
    std::uint64_t enqueueWrite(std::uint32_t home, Addr addr, Cycle now,
                               Cycle remote_until);

    /** Advance all channels to cycle @p now, socket by socket; fires
     *  read callbacks, each socket's in completion order. */
    void tick(Cycle now);

    /**
     * True when tick(@p now) would do no work: every controller idle
     * (see MemoryController::idleAt) and no scrub burst due.  Lets
     * tick() skip an idle socket during compute-bound phases.
     */
    bool idleAt(Cycle now) const { return idleAt(now, 0, channels()); }

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

    bool busy() const { return outstanding_ > 0; }

    /** Queued + in-flight requests across all channels. */
    size_t outstandingRequests() const { return outstanding_; }

    /** Outstanding thread-owned (read) requests per thread id. */
    const std::vector<std::uint32_t> &
    outstandingPerThread() const
    {
        return perThreadOutstanding_;
    }

    /** Number of distinct threads with outstanding requests. */
    std::uint32_t distinctThreadsOutstanding() const;

    const DramConfig &config() const { return config_; }
    std::uint32_t channels() const { return sockets_ * perSocket_; }
    std::uint32_t sockets() const { return sockets_; }
    /** Home socket of channel @p c. */
    std::uint32_t socketOf(std::uint32_t c) const { return c / perSocket_; }

    /** One channel's controller: its stats, queues and power ranks. */
    const MemoryController &channel(std::uint32_t c) const;

    /** Sum of all per-channel stats. */
    ControllerStats aggregateStats() const;

    /** Sum of socket @p s's per-channel stats. */
    ControllerStats socketStats(std::uint32_t s) const;

    /** Sum of all per-channel injected-fault stats. */
    FaultStats aggregateFaultStats() const;

    /** Sum of all per-channel rowhammer stats. */
    HammerStats aggregateHammerStats() const;

    /** Victim rows currently carrying at least one flipped bit. */
    std::uint64_t hammerFlippedRows() const;

    /** Sum of all per-channel energy/power stats, each channel's
     *  meter synced to @p now on a copy (MemoryController::powerAt). */
    PowerStats aggregatePowerStats(Cycle now) const;

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
    /** idleAt() of channels [first, last) alone. */
    bool
    idleAt(Cycle now, std::uint32_t first, std::uint32_t last) const
    {
        for (std::uint32_t c = first; c < last; ++c) {
            if ((!scrub_.empty() && now >= scrub_[c].nextAt) ||
                !controllers_[c].idleAt(now))
                return false;
        }
        return true;
    }

    /** tick() of socket @p s's channels. */
    void tickSocket(std::uint32_t s, Cycle now);

    /** Sum of @p get(channel) over sockets [first, last)'s channels,
     *  one socket's sum at a time (floating-point totals add per
     *  socket). */
    template <class Get>
    auto sum(Get get, std::uint32_t first, std::uint32_t last) const;

    /**
     * The one admission path, for demand and maintenance traffic
     * alike: give @p req (kind, coordinates and payload already set)
     * the next id and arrival @p now, register it with the checker,
     * queue it at its channel and count it outstanding.
     * @return the assigned id.
     */
    std::uint64_t submit(DramRequest &req, Cycle now);

    /**
     * Inject socket @p s's due patrol-scrub reads.  Generation lives
     * here, not in the controller, so scrub requests enter through
     * submit() like demand traffic and conservation covers them.
     */
    void serviceScrub(std::uint32_t s, Cycle now);

    /**
     * Materialize the preventive refreshes socket @p s's aggressor
     * trackers have requested.  Like scrub, generation lives here so
     * mitigation commands enter through submit() like demand traffic.
     */
    void serviceMitigations(std::uint32_t s, Cycle now);

    /** Per-channel patrol-scrub pacing and address cursor. */
    struct ScrubState {
        Cycle nextAt = 0;
        std::uint32_t bank = 0;
        std::uint32_t row = 0;
        std::uint32_t column = 0;
    };

    DramConfig config_;
    AddressMapping mapping_;
    std::uint32_t sockets_;
    /** config_.logicalChannels(); socket s's channels follow s - 1's. */
    std::uint32_t perSocket_;
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
