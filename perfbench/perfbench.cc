/**
 * @file
 * End-to-end benchmark of the simulator itself.
 *
 * One workload is one paper-shaped sweep (mixes x policies plus the
 * single-thread baselines its weighted speedups need), run serially
 * in this process, one simulation after another, and repeated until
 * the time budget is spent.  Every simulation is checked; host times
 * are calibrated against a memory-bound kernel timed between
 * simulations, and each simulation's cost is its median repeat.
 *
 * --trace 1 additionally rebuilds each single-socket machine from the
 * public classes (DramSystem, Hierarchy, SmtCore, SyntheticStream,
 * EventQueue) behind thin timing wrappers, steps it exactly the way
 * SmtSystem::run does, and times every call into each layer from
 * outside the library.  The traced machine must reproduce the
 * untraced simulation's digest bit for bit.
 *
 *   perfbench --workload=mem-sched --seed=42 --seconds=20 --trace=0
 *   perfbench --selftest
 *
 * The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/watchdog.hh"
#include "cpu/fetch_policy.hh"
#include "cpu/smt_core.hh"
#include "dram/dram_system.hh"
#include "dram/scheduler.hh"
#include "sim/experiment.hh"
#include "sim/smt_system.hh"
#include "topology/numa_system.hh"
#include "workload/synthetic_stream.hh"

// ---------------------------------------------------------------------
// Heap-allocation counter.  Counting is switched on only inside the
// traced machine's measured window, so sim.allocs_per_kinst is an
// exact count of what the simulator allocates in steady state.  The
// benchmark is single-threaded, so plain globals suffice.  The
// deletes stay out of line: inlined into a caller, GCC would pair a
// new-expression with free() and warn (-Wmismatched-new-delete).

namespace
{
bool gCountAllocs = false;
std::uint64_t gAllocs = 0;
} // namespace

void *
operator new(std::size_t n)
{
    if (gCountAllocs)
        ++gAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace smtdram;

namespace
{

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

std::uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p (1..100) of @p v. */
double
percentile(std::vector<double> v, unsigned p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t k = (p * v.size() + 99) / 100;
    k = std::clamp<std::size_t>(k, 1, v.size());
    return v[k - 1];
}

/** Highest whole percentile of @p n values, each standing for
 *  @p repeats timed samples, with at least ten samples beyond it. */
unsigned
tailPercentile(std::size_t n, std::size_t repeats)
{
    for (unsigned p = 99; p > 50; --p) {
        if ((n - (p * n + 99) / 100) * repeats >= 10)
            return p;
    }
    return 50;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Workloads.

/** Per-thread instruction budget of every simulation in a sweep. */
struct Budget {
    std::uint64_t measure = 0;
    std::uint64_t warmup = 0;
};

/** One simulation of a sweep. */
struct SimSpec {
    std::string label;
    SystemConfig config;
    std::vector<AppProfile> apps;
    /** Mix name, or "" for a single-thread baseline. */
    std::string mix;
    /** Application names, one per hardware thread. */
    std::vector<std::string> appNames;
    /** Scheduler, fetch policy or placement the cell varies. */
    std::string variant;
};

struct Workload {
    std::string name;
    Budget budget;
    std::vector<SimSpec> sims;
};

/** Lower-case slug of a policy name, usable inside a metric name. */
std::string
slug(const std::string &name)
{
    std::string s;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            s += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else
            s += '_';
    }
    return s;
}

SimSpec
mixSim(const WorkloadMix &mix, const SystemConfig &config,
       const std::string &variant)
{
    SimSpec s;
    s.label = mix.name + "/" + variant;
    s.config = config;
    s.apps = profilesForMix(mix);
    s.mix = mix.name;
    s.appNames = mix.apps;
    s.variant = variant;
    return s;
}

/** Baselines on the reference machine, one per distinct app, exactly
 *  as the figure benches compute weighted speedup. */
void
addBaselines(Workload &w)
{
    std::set<std::string> seen;
    std::vector<SimSpec> baselines;
    for (const SimSpec &s : w.sims) {
        for (const std::string &app : s.appNames) {
            if (!seen.insert(app).second)
                continue;
            SimSpec b;
            b.label = "alone/" + app;
            b.config = SystemConfig::paperDefault(1);
            b.apps = {specProfile(app)};
            b.appNames = {app};
            b.variant = "alone";
            baselines.push_back(std::move(b));
        }
    }
    w.sims.insert(w.sims.end(), baselines.begin(), baselines.end());
}

/**
 * The three sweeps.  Budgets are sized so one sweep takes 1-2.5 s on
 * a quiet 2 GHz x86 core, which lets a 20 s run repeat it 7-20 times.
 */
Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "mem-sched") {
        // Figure 10 shape: miss-heavy mixes x every DRAM scheduler.
        w.budget = {8'000, 4'000};
        for (const char *m : {"2-MEM", "4-MEM", "8-MEM"}) {
            const WorkloadMix &mix = mixByName(m);
            for (SchedulerKind k : allSchedulerKindsExtended()) {
                SystemConfig c = SystemConfig::paperDefault(
                    static_cast<std::uint32_t>(mix.apps.size()));
                c.scheduler = k;
                w.sims.push_back(mixSim(mix, c, schedulerName(k)));
            }
        }
    } else if (name == "ilp-core") {
        // Figure 2 shape: cache-resident mixes x every fetch policy.
        // The larger budget dilutes gzip's seed-dependent one-off
        // stall, which otherwise swings the sweep's throughput.
        w.budget = {32'000, 16'000};
        for (const char *m : {"2-ILP", "4-ILP", "8-ILP"}) {
            const WorkloadMix &mix = mixByName(m);
            for (FetchPolicyKind k : allFetchPolicyKinds()) {
                SystemConfig c = SystemConfig::paperDefault(
                    static_cast<std::uint32_t>(mix.apps.size()));
                c.core.fetchPolicy = k;
                w.sims.push_back(mixSim(mix, c, fetchPolicyName(k)));
            }
        }
    } else if (name == "numa-rw") {
        // Figure 14 shape on a 2-socket ring with every page homed on
        // socket 0, plus refresh, ECC patrol scrub and the checker.
        w.budget = {16'000, 8'000};
        const std::vector<WorkloadMix> mixes = {
            {"n4-MEM", {"mcf", "ammp", "equake", "swim"}},
            {"n4-MIX", {"mcf", "equake", "gzip", "bzip2"}},
        };
        for (const WorkloadMix &mix : mixes) {
            for (PlacementPolicy p :
                 {PlacementPolicy::RoundRobin, PlacementPolicy::Migrate}) {
                SystemConfig c = SystemConfig::paperDefault(
                    static_cast<std::uint32_t>(mix.apps.size()));
                TopologyConfig &t = c.topology;
                t.enabled = true;
                t.sockets = 2;
                t.coresPerSocket = 1;
                t.smtWays = 2;
                t.placement = p;
                t.home = HomePolicy::Loader;
                if (p == PlacementPolicy::Migrate)
                    t.migrationEpoch = 20'000;
                c.dram.withRefresh();
                c.dram.withEcc(1e-4, 1e-6);
                c.dram.checkerEnabled = true;
                w.sims.push_back(
                    mixSim(mix, c, placementPolicyName(p)));
            }
        }
    } else {
        fatal("unknown --workload '%s' (want mem-sched, ilp-core or "
              "numa-rw)", name.c_str());
    }
    addBaselines(w);
    return w;
}

// ---------------------------------------------------------------------
// Simulated-result digest and the correctness rules.

/** FNV-1a over 64-bit words. */
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

std::uint64_t
digestOf(const RunResult &r)
{
    Digest d;
    for (std::uint64_t c : r.committed)
        d.add(c);
    d.add(static_cast<std::uint64_t>(r.measuredCycles));
    for (double v : r.ipc)
        d.add(v);
    d.add(r.dram.reads);
    d.add(r.dram.writes);
    d.add(r.dram.rowHits);
    return d.h;
}

/** Rules 1-3: budget committed on every thread, finite positive IPC,
 *  and blame conserving read latency.  Returns "" when all hold. */
std::string
checkRun(const RunResult &r, const Budget &b)
{
    for (std::uint64_t c : r.committed) {
        if (c < b.measure)
            return "thread short of its instruction budget";
    }
    for (double v : r.ipc) {
        if (!std::isfinite(v) || v <= 0.0)
            return "IPC not finite and positive";
    }
    if (static_cast<double>(r.dram.blameTotals.sum()) !=
        r.dram.readLatency.sum())
        return "blame does not sum to read latency";
    return "";
}

/** One simulation's outcome plus the host cost of producing it. */
struct SimResult {
    /** Null once dropped: only the first sweep's results are kept. */
    std::unique_ptr<RunResult> run;
    /** Committed instructions, warm-up plus measured, all threads. */
    std::uint64_t insts = 0;
    /** Simulated cycles, warm-up plus measured. */
    std::uint64_t cycles = 0;
    double setupS = 0.0;
    double runS = 0.0;
    /** Calibration burst taken just before this simulation, ns/op. */
    double calibNs = 0.0;
    std::uint64_t digest = 0;
    std::string failure;
};

SimResult
finish(SimResult out, const Budget &b)
{
    out.digest = digestOf(*out.run);
    out.failure = checkRun(*out.run, b);
    return out;
}

/** Construct and run the library's own machine, timing each part. */
SimResult
runUntraced(const SimSpec &s, const Budget &b, std::uint64_t seed)
{
    SimResult out;
    const double t0 = nowSeconds();
    if (s.config.topology.active()) {
        NumaSystem sys(s.config, s.apps, seed);
        const double t1 = nowSeconds();
        out.run = std::make_unique<RunResult>(
            sys.run(b.measure, b.warmup));
        out.runS = nowSeconds() - t1;
        out.setupS = t1 - t0;
        for (std::uint32_t c = 0; c < s.config.topology.totalCores(); ++c)
            out.insts += sys.core(c).totalCommittedInsts();
        out.cycles = sys.core(0).cyclesRun();
    } else {
        SmtSystem sys(s.config, s.apps, seed);
        const double t1 = nowSeconds();
        out.run = std::make_unique<RunResult>(
            sys.run(b.measure, b.warmup));
        out.runS = nowSeconds() - t1;
        out.setupS = t1 - t0;
        out.insts = sys.core().totalCommittedInsts();
        out.cycles = sys.core().cyclesRun();
    }
    return finish(std::move(out), b);
}

// ---------------------------------------------------------------------
// The traced machine.

enum Layer : int {
    kEvents,      ///< EventQueue::runUntil, including fill callbacks
    kDramTick,    ///< DramSystem::tick
    kCacheTick,   ///< Hierarchy::tick
    kCoreCycle,   ///< SmtCore::cycle (includes Hierarchy::access)
    kStreamNext,  ///< InstStream::next
    kPortAccept,  ///< MemoryPort::canAccept
    kPortEnqueue, ///< MemoryPort::enqueueRead / enqueueWrite
    kNextEvent,   ///< the event kernel's skip-to-next-event query
    kNumLayers
};

/**
 * Span clock: total and self time per layer.  A layer's self time is
 * its spans' duration minus the part covered by spans nested inside
 * (a fetch's InstStream::next inside SmtCore::cycle, a writeback's
 * enqueueWrite inside Hierarchy::tick, ...).
 */
class LayerClock
{
  public:
    struct Totals {
        std::uint64_t ns = 0;
        std::uint64_t selfNs = 0;
        std::uint64_t calls = 0;
    };

    void
    enter(Layer l)
    {
        panic_if(depth_ == stack_.size(), "layer spans nested too deep");
        stack_[depth_++] = Frame{l, nowNs(), 0};
    }

    void
    leave()
    {
        const std::uint64_t end = nowNs();
        const Frame f = stack_[--depth_];
        const std::uint64_t dur = end - f.start;
        Totals &t = totals[f.layer];
        t.ns += dur;
        t.selfNs += dur - std::min(dur, f.childNs);
        ++t.calls;
        if (depth_ > 0)
            stack_[depth_ - 1].childNs += dur;
    }

    std::array<Totals, kNumLayers> totals{};

  private:
    struct Frame {
        Layer layer;
        std::uint64_t start;
        std::uint64_t childNs;
    };
    std::array<Frame, 8> stack_{};
    std::size_t depth_ = 0;
};

class Span
{
  public:
    Span(LayerClock &clock, Layer l) : clock_(clock) { clock_.enter(l); }
    ~Span() { clock_.leave(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerClock &clock_;
};

/** MemoryPort in front of a DramSystem that times every call. */
class TimedPort : public MemoryPort
{
  public:
    TimedPort(DramSystem &dram, LayerClock &clock)
        : dram_(dram), clock_(clock)
    {
    }

    bool
    canAccept(Addr addr, MemOp op) const override
    {
        Span s(clock_, kPortAccept);
        return dram_.canAccept(addr, op);
    }

    std::uint64_t
    enqueueRead(Addr addr, ThreadId thread, const ThreadSnapshot &snap,
                Cycle now, bool critical) override
    {
        Span s(clock_, kPortEnqueue);
        return dram_.enqueueRead(addr, thread, snap, now, critical);
    }

    std::uint64_t
    enqueueWrite(Addr addr, Cycle now) override
    {
        Span s(clock_, kPortEnqueue);
        return dram_.enqueueWrite(addr, now);
    }

    void
    setReadCallback(ReadCallback cb) override
    {
        dram_.setReadCallback(std::move(cb));
    }

  private:
    DramSystem &dram_;
    LayerClock &clock_;
};

/** InstStream wrapper that times every generated instruction. */
class TimedStream : public InstStream
{
  public:
    TimedStream(const AppProfile &profile, std::uint64_t seed,
                LayerClock &clock)
        : inner_(profile, seed), clock_(clock)
    {
    }

    MicroOp
    next() override
    {
        Span s(clock_, kStreamNext);
        return inner_.next();
    }

  private:
    SyntheticStream inner_;
    LayerClock &clock_;
};

/** Simulated counters only the traced machine can reach. */
struct TraceCounters {
    double loopS = 0.0;     ///< host seconds inside run()
    double prewarmS = 0.0;  ///< host seconds in preallocate/prewarmLine
    std::uint64_t allocs = 0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::array<std::uint64_t, 3> cacheAccesses{};  ///< L1D, L2, L3
    std::array<std::uint64_t, 3> cacheMisses{};
    std::uint64_t blocked = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;

    void
    add(const TraceCounters &o)
    {
        loopS += o.loopS;
        prewarmS += o.prewarmS;
        allocs += o.allocs;
        measuredInsts += o.measuredInsts;
        cycles += o.cycles;
        skipped += o.skipped;
        for (std::size_t i = 0; i < 3; ++i) {
            cacheAccesses[i] += o.cacheAccesses[i];
            cacheMisses[i] += o.cacheMisses[i];
        }
        blocked += o.blocked;
        coalesced += o.coalesced;
        prefetchIssued += o.prefetchIssued;
        prefetchUseful += o.prefetchUseful;
    }
};

/**
 * The single-socket machine assembled from its public parts, wired
 * and stepped exactly as SmtSystem's constructor, prewarmCaches(),
 * stepCycle(), skipToNextEvent() and run() do (observability outputs
 * are off in every benchmark config, so their branches are omitted).
 */
class TracedMachine
{
  public:
    TracedMachine(const SystemConfig &config,
                  const std::vector<AppProfile> &apps, std::uint64_t seed,
                  LayerClock &clock)
        : config_(config),
          clock_(clock),
          dram_(config_.dram, config_.scheduler),
          port_(dram_, clock_),
          hierarchy_(config_.hierarchy, port_, events_,
                     config_.core.numThreads),
          core_(config_.core, hierarchy_)
    {
        fatal_if(apps.size() != config_.core.numThreads ||
                     config_.observe.any() ||
                     config_.topology.active(),
                 "traced machine needs a plain single-socket config");
        for (std::size_t i = 0; i < apps.size(); ++i) {
            streams_.push_back(std::make_unique<TimedStream>(
                apps[i], seed + i * 0x1000'0001ULL, clock_));
            core_.bindStream(static_cast<ThreadId>(i),
                             streams_.back().get());
        }
        const double t0 = nowSeconds();
        prewarmCaches(apps);
        counters_.prewarmS = nowSeconds() - t0;
    }

    RunResult run(std::uint64_t measure_insts,
                  std::uint64_t warmup_insts);

    const TraceCounters &counters() const { return counters_; }
    std::uint64_t committedInsts() const
    {
        return core_.totalCommittedInsts();
    }

  private:
    void
    stepCycle()
    {
        ++now_;
        {
            Span s(clock_, kEvents);
            events_.runUntil(now_);
        }
        {
            Span s(clock_, kDramTick);
            dram_.tick(now_);
        }
        {
            Span s(clock_, kCacheTick);
            hierarchy_.tick(now_);
        }
        {
            Span s(clock_, kCoreCycle);
            core_.cycle(now_);
        }
    }

    std::uint64_t skipToNextEvent(Cycle clamp);
    void prewarmCaches(const std::vector<AppProfile> &apps);

    SystemConfig config_;
    LayerClock &clock_;
    EventQueue events_;
    DramSystem dram_;
    TimedPort port_;
    Hierarchy hierarchy_;
    SmtCore core_;
    std::vector<std::unique_ptr<TimedStream>> streams_;
    Cycle now_ = 0;
    TraceCounters counters_;
};

void
TracedMachine::prewarmCaches(const std::vector<AppProfile> &apps)
{
    const std::uint64_t line = config_.hierarchy.l1d.lineBytes;
    const std::uint64_t chunk = config_.hierarchy.pageBytes;
    const std::uint64_t cold_cap = config_.hierarchy.l3.sizeBytes;
    auto cold_prewarm_bytes = [cold_cap](const AppProfile &a) {
        if (a.coldBytes > cold_cap &&
            (a.coldPattern == AccessPattern::Streaming ||
             a.coldPattern == AccessPattern::Strided ||
             a.coldPattern == AccessPattern::RowHammer)) {
            return std::uint64_t{0};
        }
        return std::min<std::uint64_t>(a.coldBytes, cold_cap);
    };
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        hierarchy_.preallocate(tid, SyntheticStream::kCodeBase,
                               apps[i].codeBytes);
        hierarchy_.preallocate(tid, SyntheticStream::kHotBase,
                               apps[i].hotBytes);
        hierarchy_.preallocate(tid, SyntheticStream::kColdBase,
                               apps[i].coldBytes);
    }
    std::uint64_t max_bytes = 0;
    for (const AppProfile &a : apps)
        max_bytes = std::max({max_bytes, a.hotBytes, cold_prewarm_bytes(a)});
    for (std::uint64_t base = 0; base < max_bytes; base += chunk) {
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const auto tid = static_cast<ThreadId>(i);
            const AppProfile &a = apps[i];
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, a.hotBytes); off += line) {
                hierarchy_.prewarmLine(
                    tid, SyntheticStream::kHotBase + off, true);
            }
            const std::uint64_t cold_limit = cold_prewarm_bytes(a);
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, cold_limit); off += line) {
                hierarchy_.prewarmLine(
                    tid, SyntheticStream::kColdBase + off, false);
            }
        }
    }
}

std::uint64_t
TracedMachine::skipToNextEvent(Cycle clamp)
{
    Span span(clock_, kNextEvent);
    Cycle next = core_.nextEventAt(now_);
    if (next > now_ + 1 && hierarchy_.pendingWritebacks() > 0)
        next = now_ + 1;
    if (next > now_ + 1)
        next = std::min(next, events_.nextEventAt());
    if (next > now_ + 1)
        next = std::min(next, dram_.nextEventAt(now_));
    if (next <= now_ + 1)
        return 0;
    panic_if(next == kCycleNever && clamp == kCycleNever,
             "traced machine deadlocked at cycle %llu",
             (unsigned long long)now_);
    next = std::min(next, clamp);
    if (next <= now_ + 1)
        return 0;
    const std::uint64_t skipped = next - now_ - 1;
    core_.skipCycles(skipped);
    now_ = next - 1;
    return skipped;
}

RunResult
TracedMachine::run(std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    const double t_start = nowSeconds();
    const std::uint32_t n = config_.core.numThreads;
    auto all_committed = [this, n](std::uint64_t target,
                                   std::uint64_t grand_base,
                                   const std::vector<std::uint64_t> &base) {
        if (core_.totalCommittedInsts() - grand_base <
            static_cast<std::uint64_t>(n) * target)
            return false;
        for (ThreadId t = 0; t < n; ++t) {
            if (core_.perf(t).committedInsts - base[t] < target)
                return false;
        }
        return true;
    };

    Watchdog watchdog(config_.progressWindow, "commit progress");
    watchdog.kick(now_);
    const auto dump = [this] { dram_.dumpState(std::cerr); };
    const bool event_driven = config_.kernel == KernelMode::EventDriven;
    const auto watchdog_clamp = [&watchdog] {
        return watchdog.bound() > 0
                   ? watchdog.lastProgressAt() + watchdog.bound() + 1
                   : kCycleNever;
    };

    std::vector<std::uint64_t> zero(n, 0);
    std::uint64_t last_total = core_.totalCommittedInsts();
    while (!all_committed(warmup_insts, 0, zero)) {
        if (event_driven)
            counters_.skipped += skipToNextEvent(watchdog_clamp());
        stepCycle();
        const std::uint64_t total = core_.totalCommittedInsts();
        if (total != last_total) {
            last_total = total;
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    hierarchy_.resetStats();
    dram_.resetStats(now_);
    core_.resetHighWater();

    std::vector<std::uint64_t> base(n);
    std::uint64_t base_branches = 0, base_mispredicts = 0;
    for (ThreadId t = 0; t < n; ++t) {
        base[t] = core_.perf(t).committedInsts;
        base_branches += core_.perf(t).branches;
        base_mispredicts += core_.perf(t).mispredicts;
    }
    const std::uint64_t grand_base = core_.totalCommittedInsts();
    const Cycle start = now_;
    const std::uint64_t int_issue_base = core_.intIssueActiveCycles();

    RunResult res;
    res.ipc.assign(n, 0.0);
    res.committed.assign(n, 0);
    std::vector<Cycle> finish(n, 0);

    const std::uint64_t allocs_base = gAllocs;
    gCountAllocs = true;
    while (!all_committed(measure_insts, grand_base, base)) {
        if (event_driven) {
            const std::uint64_t skipped =
                skipToNextEvent(watchdog_clamp());
            counters_.skipped += skipped;
            if (skipped > 0 && dram_.busy()) {
                const std::size_t outstanding =
                    dram_.outstandingRequests();
                res.outstandingHist.sample(outstanding, skipped);
                if (outstanding >= 2) {
                    res.threadsHist.sample(
                        dram_.distinctThreadsOutstanding(), skipped);
                }
            }
        }
        stepCycle();
        if (dram_.busy()) {
            const std::size_t outstanding = dram_.outstandingRequests();
            res.outstandingHist.sample(outstanding);
            if (outstanding >= 2)
                res.threadsHist.sample(dram_.distinctThreadsOutstanding());
        }
        const std::uint64_t total = core_.totalCommittedInsts();
        if (total != last_total) {
            last_total = total;
            for (ThreadId t = 0; t < n; ++t) {
                if (finish[t] == 0 &&
                    core_.perf(t).committedInsts - base[t] >=
                        measure_insts)
                    finish[t] = now_;
            }
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }
    gCountAllocs = false;
    counters_.allocs = gAllocs - allocs_base;

    res.measuredCycles = now_ - start;
    for (ThreadId t = 0; t < n; ++t) {
        if (finish[t] == 0)
            finish[t] = now_;
        res.committed[t] = core_.perf(t).committedInsts - base[t];
        counters_.measuredInsts += res.committed[t];
        res.ipc[t] = static_cast<double>(measure_insts) /
                     static_cast<double>(finish[t] - start);
    }
    res.dram = dram_.aggregateStats();
    res.intIssueActiveFrac =
        res.measuredCycles
            ? static_cast<double>(core_.intIssueActiveCycles() -
                                  int_issue_base) /
                  static_cast<double>(res.measuredCycles)
            : 0.0;
    std::uint64_t branches = 0, mispredicts = 0;
    for (ThreadId t = 0; t < n; ++t) {
        branches += core_.perf(t).branches;
        mispredicts += core_.perf(t).mispredicts;
    }
    res.branchMispredictRate =
        ratio(static_cast<double>(mispredicts - base_mispredicts),
              static_cast<double>(branches - base_branches));

    const CacheArray *levels[3] = {&hierarchy_.l1d(), &hierarchy_.l2(),
                                   &hierarchy_.l3()};
    for (std::size_t i = 0; i < 3; ++i) {
        counters_.cacheAccesses[i] = levels[i]->demandStats().total();
        counters_.cacheMisses[i] = levels[i]->demandStats().misses();
    }
    counters_.blocked = hierarchy_.blockedAccesses();
    counters_.coalesced = hierarchy_.coalescedTargets();
    counters_.prefetchIssued = hierarchy_.prefetchesIssued();
    counters_.prefetchUseful = hierarchy_.prefetchesUseful();
    counters_.cycles = now_;
    counters_.loopS = nowSeconds() - t_start;
    return res;
}

/** Build, run and check one traced simulation. */
SimResult
runTraced(const SimSpec &s, const Budget &b, std::uint64_t seed,
          LayerClock &clock, TraceCounters &counters)
{
    SimResult out;
    const double t0 = nowSeconds();
    TracedMachine m(s.config, s.apps, seed, clock);
    const double t1 = nowSeconds();
    out.run = std::make_unique<RunResult>(m.run(b.measure, b.warmup));
    out.runS = nowSeconds() - t1;
    out.setupS = t1 - t0;
    out.insts = m.committedInsts();
    out.cycles = m.counters().cycles;
    counters.add(m.counters());
    return finish(std::move(out), b);
}

// ---------------------------------------------------------------------
// Sweeps and metrics.

/** Calibration reading of the reference box (see README.md), ns/op. */
constexpr double kCalibRefNs = 40.0;

/**
 * Memory-bound calibration: random inserts and erases on a std::
 * unordered_map of up to 64K keys, timed in short bursts between
 * simulations.  Other tenants of a shared host slow it about as much
 * as they slow the simulator, since both chase pointers through the
 * caches; BM_Calibration's ALU loop barely notices them.  Host times
 * are scaled by kCalibRefNs / burst, so they read as seconds on the
 * reference box and stay put while the host drifts.  The kernel is
 * the benchmark's own code, so a faster simulator still reads faster.
 */
class Calibration
{
  public:
    Calibration()
    {
        map_.reserve(kKeys);
        for (int i = 0; i < 8; ++i)
            burstNs();
    }

    double
    burstNs()
    {
        constexpr int kOps = 50'000;
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kOps; ++i) {
            rng_ ^= rng_ << 13;
            rng_ ^= rng_ >> 7;
            rng_ ^= rng_ << 17;
            const std::uint64_t key = rng_ & (kKeys - 1);
            if (rng_ & (1ULL << 40))
                map_[key] += rng_;
            else
                map_.erase(key);
        }
        return static_cast<double>(nowNs() - t0) / kOps;
    }

  private:
    static constexpr std::uint64_t kKeys = 1 << 16;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/** Host cost of one pass over a workload's simulations. */
struct Sweep {
    std::vector<SimResult> sims;
    double wallS = 0.0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;

    /** @param keep hold on to the full RunResult (the first sweep's
     *  feed the simulated metrics; repeats keep only their digests). */
    void
    add(SimResult r, bool keep)
    {
        if (!keep)
            r.run.reset();
        insts += r.insts;
        cycles += r.cycles;
        sims.push_back(std::move(r));
    }
};

/** Span clock and counters shared by a run's traced passes. */
struct Tracing {
    LayerClock clock;
    TraceCounters counters;
};

/**
 * One pass over the workload, with a calibration burst before each
 * simulation.  With @p tracing, single-socket machines run traced;
 * NUMA machines cannot be rebuilt from outside, so they rerun
 * untraced and contribute simulated counts only.
 */
Sweep
runSweep(const Workload &w, std::uint64_t seed, Calibration &calib,
         bool keep, Tracing *tracing)
{
    Sweep sw;
    const double t0 = nowSeconds();
    for (const SimSpec &s : w.sims) {
        const double calib_ns = calib.burstNs();
        SimResult r =
            tracing && !s.config.topology.active()
                ? runTraced(s, w.budget, seed, tracing->clock,
                            tracing->counters)
                : runUntraced(s, w.budget, seed);
        r.calibNs = calib_ns;
        sw.add(std::move(r), keep);
    }
    sw.wallS = nowSeconds() - t0;
    return sw;
}

/** Workload digest: the per-simulation digests in sweep order. */
std::uint64_t
sweepDigest(const Sweep &sw)
{
    Digest d;
    for (const SimResult &r : sw.sims)
        d.add(r.digest);
    return d.h;
}

/**
 * Count failures in @p sw: rules 1-3 per simulation, plus any digest
 * that differs from the same simulation in @p reference (rule 4 for a
 * traced pass; run-to-run determinism for a repeated untraced one).
 */
std::size_t
countFailures(const Workload &w, const Sweep &sw, const Sweep &reference,
              const char *what)
{
    std::size_t failed = 0;
    for (std::size_t i = 0; i < sw.sims.size(); ++i) {
        const SimResult &r = sw.sims[i];
        std::string why = r.failure;
        if (why.empty() && r.digest != reference.sims[i].digest)
            why = std::string("digest differs from the ") + what;
        if (!why.empty()) {
            ++failed;
            std::fprintf(stderr, "FAILED %s: %s\n",
                         w.sims[i].label.c_str(), why.c_str());
        }
    }
    return failed;
}

/** Fixed integer-mixing loop (BM_Calibration's body): host ns per
 *  512-step iteration, a machine-speed anchor for every run. */
double
calibrationNs()
{
    std::vector<double> reps;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    constexpr int kIters = 20'000;
    for (int r = 0; r < 7; ++r) {
        const std::uint64_t t0 = nowNs();
        for (int it = 0; it < kIters; ++it) {
            for (int i = 0; i < 512; ++i) {
                x ^= x >> 33;
                x *= 0xff51afd7ed558ccdULL;
                x ^= x >> 29;
            }
            asm volatile("" : "+r"(x));
        }
        reps.push_back(static_cast<double>(nowNs() - t0) / kIters);
    }
    return median(reps);
}

/** Peak resident memory of this program image.  getrusage()'s
 *  ru_maxrss would carry the launching process's peak across exec, so
 *  read the image's own high-water mark. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    fatal("no VmHWM in /proc/self/status");
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, std::isfinite(value) ? value : 0.0,
                            unit});
        std::printf("%-40s %.6g %s\n", name.c_str(), value, unit.c_str());
    }

    /** The contract line: the last thing written to stdout. */
    void
    printJson(std::size_t attempted, std::size_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %zu, "
                    "\"failed\": %zu, \"metrics\": {",
                    failed == 0 ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("}}\n");
    }

  private:
    std::vector<Metric> metrics_;
};

/**
 * Each simulation's host cost, construction and run() separately, as
 * the median over the run's repeats of its calibrated time (measured
 * seconds x kCalibRefNs / the burst taken just before it).
 */
struct HostCost {
    std::vector<double> setupS;
    std::vector<double> runS;
};

double
calibrated(double seconds, const SimResult &r)
{
    return seconds * kCalibRefNs / r.calibNs;
}

HostCost
hostCost(const std::vector<Sweep> &sweeps)
{
    HostCost c;
    const std::size_t n = sweeps.front().sims.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> setup, run;
        for (const Sweep &sw : sweeps) {
            setup.push_back(calibrated(sw.sims[i].setupS, sw.sims[i]));
            run.push_back(calibrated(sw.sims[i].runS, sw.sims[i]));
        }
        c.setupS.push_back(median(setup));
        c.runS.push_back(median(run));
    }
    return c;
}

/**
 * Host seconds for the sweep at its nominal length: construction plus
 * each run() scaled from the instructions it committed to the ones it
 * was asked for (threads x (measured + warm-up)).  A multi-threaded
 * run ends when its slowest thread reaches the budget, so a seed that
 * stalls one thread (gzip has a one-off ~20k-cycle stall on some
 * seeds) makes every other thread overshoot; unscaled, that swings
 * ilp-core's sweep length by a third from seed to seed.
 */
double
wallS(const Workload &w, const HostCost &cost, const Sweep &first)
{
    double s = 0.0;
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        const double nominal =
            static_cast<double>(w.sims[i].apps.size() *
                                (w.budget.measure + w.budget.warmup));
        s += cost.setupS[i] +
             cost.runS[i] *
                 ratio(nominal, static_cast<double>(first.sims[i].insts));
    }
    return s;
}

/** Sweeps every run makes, however little time it is given. */
constexpr std::size_t kMinSweeps = 3;

/** Every end-to-end metric, from the untraced sweeps of one run. */
void
reportEndToEnd(Report &rep, const Workload &w,
               const std::vector<Sweep> &sweeps)
{
    const HostCost cost = hostCost(sweeps);
    const Sweep &first = sweeps.front();
    double run_s = 0.0;
    std::vector<double> us_per_kinst;
    for (std::size_t i = 0; i < cost.runS.size(); ++i) {
        run_s += cost.runS[i];
        us_per_kinst.push_back(ratio(
            cost.runS[i] * 1e6,
            static_cast<double>(first.sims[i].insts) / 1e3));
    }
    std::vector<double> setup;
    for (const Sweep &sw : sweeps) {
        double sum = 0.0;
        for (const SimResult &r : sw.sims)
            sum += calibrated(r.setupS, r);
        setup.push_back(sum);
    }
    // The percentile assumes only the guaranteed repeat count, so it
    // does not move with how many sweeps a run's host speed allowed.
    const std::size_t n = us_per_kinst.size();
    const unsigned tail = tailPercentile(n, kMinSweeps);
    std::printf("us_per_kinst_tail is p%u of %zu simulations timed %zu "
                "times each (%zu timed runs beyond it)\n",
                tail, n, sweeps.size(),
                (n - (tail * n + 99) / 100) * sweeps.size());
    rep.add("wall_s", wallS(w, cost, first), "s");
    rep.add("setup_s", median(setup), "s");
    rep.add("sim_minst_per_s",
            ratio(static_cast<double>(first.insts), run_s) / 1e6,
            "Minst/s");
    rep.add("sim_mcycle_per_s",
            ratio(static_cast<double>(first.cycles), run_s) / 1e6,
            "Mcycle/s");
    rep.add("us_per_kinst_p50", percentile(us_per_kinst, 50), "us");
    rep.add("us_per_kinst_tail", percentile(us_per_kinst, tail), "us");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

/** Paper Figure 10 weighted-speedup ratios over FCFS on 2-MEM, where
 *  the paper states a number. */
double
paperWsRatio2Mem(SchedulerKind k)
{
    switch (k) {
      case SchedulerKind::RequestBased: return 1.298;
      case SchedulerKind::IqBased: return 1.259;
      default: return 0.0;
    }
}

/** Weighted speedup over FCFS per scheduler on 2-MEM; 0 on the
 *  workloads without a 2-MEM cell. */
void
reportModel(Report &rep, const Workload &w, const Sweep &sw)
{
    std::map<std::string, double> alone;
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        if (w.sims[i].mix.empty())
            alone[w.sims[i].appNames[0]] = sw.sims[i].run->ipc.at(0);
    }
    std::map<std::string, double> ws;
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        const SimSpec &s = w.sims[i];
        if (s.mix != "2-MEM")
            continue;
        double v = 0.0;
        for (std::size_t t = 0; t < s.appNames.size(); ++t)
            v += ratio(sw.sims[i].run->ipc[t], alone[s.appNames[t]]);
        ws[s.variant] = v;
    }
    for (SchedulerKind k : allSchedulerKindsExtended()) {
        if (k == SchedulerKind::Fcfs)
            continue;
        const std::string name = schedulerName(k);
        const double r = ratio(ws[name], ws["FCFS"]);
        const double paper = paperWsRatio2Mem(k);
        if (r > 0.0 && paper > 0.0) {
            std::printf("paper %s on 2-MEM: %.3f, model %.4f, error "
                        "%+.1f%%\n",
                        name.c_str(), paper, r,
                        100.0 * (r - paper) / paper);
        }
        rep.add("model.ws_ratio." + slug(name) + "_2mem", r, "ratio");
    }
}

/** Simulated per-layer counts from the untraced results. */
void
reportSimulated(Report &rep, const Sweep &sw)
{
    double committed = 0, cycles = 0, issue = 0, mispredict = 0;
    double reads = 0, row_hits = 0, row_total = 0, scrubs = 0;
    double refresh_blame = 0, blame = 0;
    NumaStats numa;
    LogHistogram latency, depth;
    for (const SimResult &r : sw.sims) {
        const RunResult &run = *r.run;
        double c = 0;
        for (std::uint64_t v : run.committed)
            c += static_cast<double>(v);
        committed += c;
        cycles += static_cast<double>(run.measuredCycles);
        issue += run.intIssueActiveFrac *
                 static_cast<double>(run.measuredCycles);
        mispredict += run.branchMispredictRate * c;
        reads += static_cast<double>(run.dram.reads);
        row_hits += static_cast<double>(run.dram.rowHits);
        row_total += static_cast<double>(
            run.dram.rowHits + run.dram.rowEmpty + run.dram.rowConflicts);
        scrubs += static_cast<double>(run.dram.scrubReads);
        refresh_blame += static_cast<double>(
            run.dram.blameTotals[BlameComponent::RefreshStall]);
        blame += static_cast<double>(run.dram.blameTotals.sum());
        latency.merge(run.dram.readLatencyHist);
        depth.merge(run.dram.queueDepthHist);
        numa.localReads += run.numa.localReads;
        numa.remoteReads += run.numa.remoteReads;
        numa.returnCycles += run.numa.returnCycles;
        numa.linkQueueCycles += run.numa.linkQueueCycles;
        numa.linkTransfers += run.numa.linkTransfers;
        numa.migrations += run.numa.migrations;
        numa.migrationStallCycles += run.numa.migrationStallCycles;
    }
    rep.add("cpu.ipc_total", ratio(committed, cycles), "inst/cycle");
    rep.add("cpu.int_issue_active_frac", ratio(issue, cycles), "fraction");
    rep.add("cpu.mispredict_rate", ratio(mispredict, committed),
            "fraction");
    rep.add("dram.reads_per_kinst", ratio(reads * 1e3, committed),
            "count/kinst");
    rep.add("dram.row_hit_rate", ratio(row_hits, row_total), "fraction");
    rep.add("dram.read_latency_p50", latency.p50(), "cycles");
    rep.add("dram.read_latency_p99", latency.p99(), "cycles");
    rep.add("dram.queue_depth_p99", depth.p99(), "requests");
    rep.add("dram.refresh_blocked_share", ratio(refresh_blame, blame),
            "fraction");
    rep.add("dram.scrub_reads_per_kread", ratio(scrubs * 1e3, reads),
            "count/kread");
    rep.add("topology.remote_read_frac", numa.remoteReadFrac(), "fraction");
    rep.add("topology.link_queue_cycles_per_transfer",
            ratio(static_cast<double>(numa.linkQueueCycles),
                  static_cast<double>(numa.linkTransfers)),
            "cycles");
    rep.add("topology.return_cycles_per_remote_read",
            ratio(static_cast<double>(numa.returnCycles),
                  static_cast<double>(numa.remoteReads)),
            "cycles");
    rep.add("topology.migrations", static_cast<double>(numa.migrations),
            "count");
    rep.add("topology.migration_stall_cycles",
            static_cast<double>(numa.migrationStallCycles), "cycles");
}

/** Host-time split across layers, from the traced passes. */
void
reportLayers(Report &rep, const LayerClock &clock,
             const TraceCounters &c, const std::vector<double> &prewarm)
{
    const auto &t = clock.totals;
    const double loop_ns = c.loopS * 1e9;
    auto share = [&](Layer l) {
        return ratio(static_cast<double>(t[l].ns), loop_ns);
    };
    auto per_call = [&](Layer l) {
        return ratio(static_cast<double>(t[l].ns),
                     static_cast<double>(t[l].calls));
    };
    const double kinst = static_cast<double>(c.measuredInsts) / 1e3;
    rep.add("workload.next_ns_per_call", per_call(kStreamNext), "ns");
    rep.add("workload.share", share(kStreamNext), "fraction");
    rep.add("cpu.cycle_self_share",
            ratio(static_cast<double>(t[kCoreCycle].selfNs), loop_ns),
            "fraction");
    rep.add("cpu.ns_per_cycle_call", per_call(kCoreCycle), "ns");
    rep.add("cache.tick_share", share(kCacheTick), "fraction");
    const char *level[3] = {"l1d", "l2", "l3"};
    for (std::size_t i = 0; i < 3; ++i) {
        rep.add(std::string("cache.") + level[i] + "_miss_rate",
                ratio(static_cast<double>(c.cacheMisses[i]),
                      static_cast<double>(c.cacheAccesses[i])),
                "fraction");
    }
    rep.add("cache.blocked_per_kinst",
            ratio(static_cast<double>(c.blocked), kinst), "count/kinst");
    rep.add("cache.coalesced_per_kinst",
            ratio(static_cast<double>(c.coalesced), kinst),
            "count/kinst");
    rep.add("cache.prefetch_useful_ratio",
            ratio(static_cast<double>(c.prefetchUseful),
                  static_cast<double>(c.prefetchIssued)),
            "fraction");
    rep.add("dram.tick_share", share(kDramTick), "fraction");
    rep.add("dram.enqueue_ns_per_call", per_call(kPortEnqueue), "ns");
    rep.add("events.run_share", share(kEvents), "fraction");
    rep.add("sim.skip_ratio",
            ratio(static_cast<double>(c.skipped),
                  static_cast<double>(c.cycles)),
            "fraction");
    rep.add("sim.next_event_share", share(kNextEvent), "fraction");
    rep.add("sim.prewarm_s", median(prewarm), "s");
    rep.add("sim.allocs_per_kinst",
            ratio(static_cast<double>(c.allocs), kinst), "count/kinst");
}

/** True while another sweep of about @p last seconds still fits. */
bool
wantAnother(std::size_t done, double started, double last, double seconds)
{
    return done < kMinSweeps || nowSeconds() - started + last <= seconds;
}

int
runBenchmark(const Workload &w, std::uint64_t seed, double seconds,
             bool trace)
{
    std::printf("workload %s seed %llu: %zu simulations per sweep, "
                "%llu measured + %llu warm-up instructions per thread\n",
                w.name.c_str(), (unsigned long long)seed, w.sims.size(),
                (unsigned long long)w.budget.measure,
                (unsigned long long)w.budget.warmup);
    const double calib = calibrationNs();
    std::printf("host.calib_ns %.4f\n", calib);

    Calibration calibration;
    std::vector<Sweep> untraced, traced;
    Tracing tracing;
    std::vector<double> prewarm;
    const double started = nowSeconds();
    double last = 0.0;
    while (wantAnother(untraced.size(), started, last, seconds)) {
        untraced.push_back(
            runSweep(w, seed, calibration, untraced.empty(), nullptr));
        last = untraced.back().wallS;
        if (trace) {
            const double prewarm_before = tracing.counters.prewarmS;
            traced.push_back(
                runSweep(w, seed, calibration, false, &tracing));
            prewarm.push_back(tracing.counters.prewarmS - prewarm_before);
            last += traced.back().wallS;
        }
    }
    std::vector<double> bursts;
    for (const Sweep &sw : untraced) {
        for (const SimResult &r : sw.sims)
            bursts.push_back(r.calibNs);
    }
    const double calib_mem = median(bursts);
    std::printf("host.calib_mem_ns %.4f (reference box %.1f)\n", calib_mem,
                kCalibRefNs);

    // Repeated sweeps must reproduce the first one exactly; a traced
    // pass must reproduce the untraced one.
    std::size_t attempted = 0, failed = 0;
    for (const Sweep &sw : untraced) {
        attempted += sw.sims.size();
        failed += countFailures(w, sw, untraced.front(), "first sweep");
    }
    for (const Sweep &sw : traced) {
        attempted += sw.sims.size();
        failed += countFailures(w, sw, untraced.front(), "untraced run");
    }
    std::printf("digest %s %016llx\n", w.name.c_str(),
                (unsigned long long)sweepDigest(untraced.front()));
    std::printf("sweeps %zu untraced, %zu traced; simulations attempted "
                "%zu failed %zu\nuntraced sweep wall s:",
                untraced.size(), traced.size(), attempted, failed);
    for (const Sweep &sw : untraced)
        std::printf(" %.3f", sw.wallS);
    std::printf("\n");

    Report rep;
    if (!trace) {
        reportEndToEnd(rep, w, untraced);
    } else {
        reportLayers(rep, tracing.clock, tracing.counters, prewarm);
        reportSimulated(rep, untraced.front());
        reportModel(rep, w, untraced.front());
        rep.add("host.calib_ns", calib, "ns");
        rep.add("host.calib_mem_ns", calib_mem, "ns");
        rep.add("host.trace_overhead_s",
                wallS(w, hostCost(traced), traced.front()) -
                    wallS(w, hostCost(untraced), untraced.front()),
                "s");
    }
    rep.printJson(attempted, failed);
    return 0;
}

/**
 * Tiny-budget self-test: for one mix per traced workload and both
 * kernels, the traced machine reproduces SmtSystem::run's digest, a
 * second run with the same seed reproduces it too, and the two
 * kernels agree.
 */
int
selfTest()
{
    const Budget b{2'000, 1'000};
    const std::uint64_t seed = 7;
    int failures = 0;
    for (const char *name : {"2-MEM", "2-ILP"}) {
        const WorkloadMix &mix = mixByName(name);
        std::uint64_t first = 0;
        for (KernelMode k : {KernelMode::PerCycle, KernelMode::EventDriven}) {
            SystemConfig c = SystemConfig::paperDefault(
                static_cast<std::uint32_t>(mix.apps.size()));
            c.kernel = k;
            const SimSpec s = mixSim(mix, c, "selftest");
            LayerClock clock;
            TraceCounters counters;
            const SimResult a = runUntraced(s, b, seed);
            const SimResult again = runUntraced(s, b, seed);
            const SimResult t = runTraced(s, b, seed, clock, counters);
            if (k == KernelMode::PerCycle)
                first = a.digest;
            const bool ok = a.failure.empty() && t.failure.empty() &&
                            a.digest == again.digest &&
                            a.digest == t.digest && a.digest == first;
            std::printf("selftest %s %s: untraced %016llx repeat %016llx "
                        "traced %016llx %s\n",
                        name,
                        k == KernelMode::PerCycle ? "cycle" : "event",
                        (unsigned long long)a.digest,
                        (unsigned long long)again.digest,
                        (unsigned long long)t.digest, ok ? "ok" : "FAIL");
            failures += ok ? 0 : 1;
        }
    }
    std::printf("selftest %s\n", failures ? "FAILED" : "passed");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark measures the default machine and kernel; the
    // process-wide overrides the CI legs use must not leak in.
    unsetenv("SMTDRAM_KERNEL");
    unsetenv("SMTDRAM_TOPOLOGY");

    Flags flags;
    flags.declare("workload", "mem-sched",
                  "sweep to run: mem-sched, ilp-core or numa-rw");
    flags.declare("seed", "42", "workload seed");
    flags.declare("seconds", "20", "host seconds to spend measuring");
    flags.declare("trace", "0",
                  "1 = traced run printing the per-layer metrics");
    flags.declare("selftest", "false",
                  "check the traced machine against SmtSystem and exit");
    flags.parse(argc, argv,
                "End-to-end simulator benchmark: paper-shaped sweeps "
                "timed on the host");
    if (flags.getBool("selftest"))
        return selfTest();

    const std::int64_t seed = flags.getInt("seed");
    const double seconds = flags.getDouble("seconds");
    const std::int64_t trace = flags.getInt("trace");
    fatal_if(seed < 0, "--seed must be >= 0");
    fatal_if(!(seconds > 0.0), "--seconds must be positive");
    fatal_if(trace != 0 && trace != 1, "--trace must be 0 or 1");
    return runBenchmark(makeWorkload(flags.getString("workload")),
                        static_cast<std::uint64_t>(seed), seconds,
                        trace == 1);
}
