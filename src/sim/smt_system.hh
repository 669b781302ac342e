/**
 * @file
 * The complete simulated machine — N sockets x M SMT cores, each
 * core with its own cache hierarchy, one DRAM system whose channels
 * are grouped by home socket, a ring interconnect between sockets and
 * an OS layer that places (and optionally migrates) threads — plus
 * the run loop, the samplers behind Figures 4 and 5, and the stats
 * document's one source, emitStats().  A config without an active
 * topology builds the paper's machine: one socket, one core.
 *
 * Structure per core: SmtCore -> Hierarchy -> SocketPort, where the
 * SocketPort routes through the SocketRouter to the home socket's
 * channels of the one DramSystem.  One PageTables is shared by every
 * hierarchy (with the NUMA frame allocator as its frame source) so a
 * migrated thread keeps its physical pages — which is precisely what
 * makes migration interesting: the pages stay put, the thread moves.
 *
 * Every core is built with a context slot per OS thread (thread ids
 * are global); the per-core SMT-way limit is an OS *policy* capacity
 * enforced by placement/validate, not a structural one.  That keeps
 * all bookkeeping (DRAM per-thread arrays, blame, interference)
 * keyed by the one global thread id before and after migrations.
 */

#ifndef SMTDRAM_SIM_SMT_SYSTEM_HH
#define SMTDRAM_SIM_SMT_SYSTEM_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/stats_registry.hh"
#include "common/trace_event.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"
#include "dram/power_model.hh"
#include "dram/row_hammer.hh"
#include "sim/system_config.hh"
#include "topology/numa_stats.hh"
#include "topology/socket_router.hh"
#include "workload/spec2000.hh"
#include "workload/synthetic_stream.hh"

namespace smtdram
{

/**
 * Everything a bench needs from one simulation run: only what the run
 * measured, so two runs are the same run exactly when their records
 * compare ==.  Derived figures are computed from it on demand.
 */
struct RunResult {
    Cycle measuredCycles = 0;
    /** Per-thread IPC over the measurement window. */
    std::vector<double> ipc;
    std::vector<std::uint64_t> committed;

    // --- DRAM-side measurements ---
    ControllerStats dram;
    /** Energy/power over the measurement window (always metered). */
    PowerStats power;
    /** Rowhammer disturbance/mitigation counters (zero when off). */
    HammerStats hammer;
    /** Figure 4: outstanding requests, one sample per cycle the DRAM
     *  is busy (the figure's bins are cut at report time). */
    LogHistogram outstandingHist;
    /** Figure 5: threads contributing when >=2 requests pending. */
    LogHistogram threadsHist;
    /** Fraction of cycles issuing at least one integer instruction. */
    double intIssueActiveFrac = 0.0;
    double branchMispredictRate = 0.0;

    /** NUMA-layer counters; all zeros unless the topology is
     *  nontrivial() (more than one core). */
    NumaStats numa;

    bool operator==(const RunResult &) const = default;

    /** Main-memory accesses (reads) per 100 committed instructions. */
    double
    memAccessPer100() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t c : committed)
            total += c;
        return total ? 100.0 * static_cast<double>(dram.reads) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** One simulated machine executing a set of application profiles. */
class SmtSystem
{
  public:
    /**
     * @param config machine parameters; a topology that is not
     *               active() builds the 1x1 machine.
     * @param apps one profile per OS thread; size must equal
     *             config.core.numThreads.
     * @param seed workload randomness seed (thread i uses seed + i).
     */
    SmtSystem(const SystemConfig &config,
              const std::vector<AppProfile> &apps, std::uint64_t seed);
    ~SmtSystem();

    /**
     * Warm up (unmeasured) then measure.
     *
     * The run ends when every thread has committed @p measure_insts
     * instructions inside the measurement window; each thread's IPC
     * uses the cycle at which *it* reached the budget, so early
     * finishers are not distorted by stragglers (the standard
     * multi-program methodology).
     */
    RunResult run(std::uint64_t measure_insts,
                  std::uint64_t warmup_insts);

    const SmtCore &core(std::uint32_t c = 0) const { return *cores_[c]; }
    const Hierarchy &
    hierarchy(std::uint32_t c = 0) const
    {
        return *hierarchies_[c];
    }
    const DramSystem &dram() const { return *dram_; }
    const SocketRouter &router() const { return *router_; }
    const SystemConfig &config() const { return config_; }

    /**
     * Dump per-thread placement and commit counts and the full
     * DRAM-side state — the diagnostic payload printed when the
     * forward-progress watchdog fires.
     */
    void dumpState(std::ostream &os) const;

    /** Stats registry, or nullptr when no stats output is configured.
     *  Its source is emitStats(): every value() or write*() call
     *  takes a fresh sample of the live machine. */
    const StatsRegistry *statsRegistry() const { return registry_.get(); }

    /** Lifecycle tracer, or nullptr when tracing is off. */
    Tracer *tracer() { return tracer_.get(); }

    /**
     * Write whatever observability outputs are configured (stats
     * JSON/CSV, trace file) reflecting the machine's current state.
     * Runs automatically at the end of run() and — through the panic
     * hook — when the watchdog or an invariant kills the process, so
     * a wedge leaves a post-mortem instead of nothing.
     */
    void exportObservability();

  private:
    /** Advance the machine one cycle. */
    void stepCycle();

    /**
     * Event-driven kernel: jump the clock to just before the global
     * min next-event cycle (cores, event queue, hierarchy writebacks,
     * DRAM), clamped to @p clamp so epoch boundaries, migration
     * epochs and the watchdog expiry are always real-stepped.
     * Returns how many provably no-op cycles were skipped (0 when the
     * next cycle has work); the caller then stepCycle()s the event
     * cycle itself normally.
     */
    std::uint64_t skipToNextEvent(Cycle clamp);

    /**
     * Figures 4 and 5: record the DRAM's current concurrency once per
     * cycle of a @p cycles-long window, if the DRAM is busy.  The
     * event kernel passes a whole skipped window, across which the
     * DRAM state is frozen; a zero-cycle window costs nothing.
     */
    void sampleConcurrency(RunResult &res, std::uint64_t cycles) const;

    /**
     * The stats registry's one source: every scalar and histogram of
     * the stats document, in document order, from one aggregation of
     * the DRAM, power and hammer stats.
     */
    void emitStats(StatsSample &out) const;

    /** Epoch boundary: sample the registry and emit trace counters. */
    void sampleEpoch();

    /** Structural cache warm-up (see .cc for the methodology). */
    void prewarmCaches(const std::vector<AppProfile> &apps);

    /** The DRAM controller stats plus the interconnect's queue waits
     *  in the interference matrix. */
    ControllerStats aggDramStats() const;
    std::uint64_t committedOf(ThreadId tid) const;
    std::uint64_t grandCommitted() const;
    std::vector<std::uint64_t> perThreadReads() const;

    // --- OS scheduler: epoch migration engine ----------------------
    void considerMigration();
    void serviceMigrations();

    /** One in-flight thread move (or half of a swap). */
    struct PendingMigration {
        ThreadId tid = kThreadNone;
        std::uint32_t from = 0;
        std::uint32_t to = 0;
        Cycle since = 0;
    };

    SystemConfig config_;
    EventQueue events_;
    std::unique_ptr<NumaFrameAllocator> alloc_;
    std::unique_ptr<PageTables> pageTables_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<SocketRouter> router_;
    std::vector<std::unique_ptr<SocketPort>> ports_;
    std::vector<std::unique_ptr<Hierarchy>> hierarchies_;
    std::vector<std::unique_ptr<SmtCore>> cores_;
    std::vector<std::unique_ptr<SyntheticStream>> streams_;
    std::vector<std::uint32_t> threadCore_;
    Cycle now_ = 0;

    std::vector<PendingMigration> pendingMigrations_;
    Cycle lastMigrateAt_ = 0;
    /** Remote-read counters snapshotted at the last migration epoch. */
    std::vector<std::uint64_t> remoteBase_;
    std::vector<std::vector<std::uint64_t>> toSocketBase_;

    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<StatsRegistry> registry_;
    Cycle lastEpochAt_ = 0;
    /** Cycle the measurement window opened; average power uses it. */
    Cycle statsResetAt_ = 0;
    PanicHookHandle panicHook_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_SIM_SMT_SYSTEM_HH
