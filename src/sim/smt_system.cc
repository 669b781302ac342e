#include "sim/smt_system.hh"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/watchdog.hh"
#include "sim/experiment.hh"
#include "topology/placement.hh"

namespace smtdram
{

KernelMode
kernelMode(KernelMode configured)
{
    const char *env = std::getenv("SMTDRAM_KERNEL");
    if (!env || !*env)
        return configured;
    if (!std::strcmp(env, "event") || !std::strcmp(env, "event-driven"))
        return KernelMode::EventDriven;
    if (!std::strcmp(env, "cycle") || !std::strcmp(env, "per-cycle"))
        return KernelMode::PerCycle;
    fatal_if(true, "SMTDRAM_KERNEL must be 'cycle' or 'event', "
                   "got '%s'", env);
    return configured;
}

namespace
{

/** Remote reads a thread must accrue per epoch before the OS
 *  scheduler considers moving it (noise floor / hysteresis). */
constexpr std::uint64_t kMigrateThreshold = 16;

/**
 * Per-thread DRAM bandwidth shares in percent, one sample per thread
 * (the stats document's dram.bandwidth_share_pct).
 * Rounded to nearest: plain truncation systematically biases every
 * share low (four perfectly fair threads each report 24%, not 25%).
 */
LogHistogram
bandwidthShares(const std::vector<std::uint64_t> &reads)
{
    LogHistogram h;
    std::uint64_t total = 0;
    for (auto v : reads)
        total += v;
    if (total > 0) {
        for (auto v : reads)
            h.sample((100 * v + total / 2) / total);
    }
    return h;
}

/** The epoch trace's "blame_<component>" counter names, built once
 *  from blameComponentName(); Tracer::counter keeps the pointers. */
const std::array<std::string, kNumBlameComponents> &
blameCounterNames()
{
    static const auto names = [] {
        std::array<std::string, kNumBlameComponents> n;
        for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
            n[c] = std::string("blame_") +
                   blameComponentName(static_cast<BlameComponent>(c));
        }
        return n;
    }();
    return names;
}

} // namespace

SmtSystem::SmtSystem(const SystemConfig &config,
                     const std::vector<AppProfile> &apps,
                     std::uint64_t seed)
    : config_(config)
{
    config_.kernel = kernelMode(config_.kernel);
    // No active topology: the paper's machine, one socket, one core.
    if (!config_.topology.active())
        config_.topology = TopologyConfig{};
    config_.topology.enabled = true;
    const std::uint32_t n = config_.core.numThreads;
    fatal_if(apps.size() != n,
             "%zu application profiles for %u hardware threads",
             apps.size(), n);
    const TopologyConfig &topo = config_.topology;
    topo.validate(n);
    const std::uint32_t cores = topo.totalCores();

    // Shared translation machinery: one page-table set for the whole
    // machine, frames handed out by the home-aware allocator.  On one
    // socket the allocator is a plain sequential frame counter.
    pageTables_ = std::make_unique<PageTables>(
        config_.hierarchy.pageBytes, n);
    alloc_ = std::make_unique<NumaFrameAllocator>(
        topo, pageTables_->pageShift());

    threadCore_ = computePlacement(topo, apps);
    pageTables_->setFrameSource([this](ThreadId tid) {
        return alloc_->allocate(threadCore_[tid] /
                                config_.topology.coresPerSocket);
    });

    dram_ = std::make_unique<DramSystem>(config_.dram, config_.scheduler,
                                         topo.sockets);
    router_ = std::make_unique<SocketRouter>(topo, *dram_, *alloc_, n);

    ports_.reserve(cores);
    hierarchies_.reserve(cores);
    cores_.reserve(cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        ports_.push_back(std::make_unique<SocketPort>(*router_, c));
        hierarchies_.push_back(std::make_unique<Hierarchy>(
            config_.hierarchy, *ports_.back(), events_, n));
        hierarchies_.back()->setSharedPageTables(pageTables_.get());
        cores_.push_back(std::make_unique<SmtCore>(
            config_.core, *hierarchies_.back()));
    }

    streams_.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        streams_.push_back(std::make_unique<SyntheticStream>(
            apps[i], seed + i * 0x1000'0001ULL));
        cores_[threadCore_[i]]->bindStream(static_cast<ThreadId>(i),
                                           streams_.back().get());
    }

    remoteBase_.assign(n, 0);
    toSocketBase_.assign(n,
                         std::vector<std::uint64_t>(topo.sockets, 0));

    if (config_.observe.traceEnabled()) {
        tracer_ = std::make_unique<Tracer>(config_.observe.tracePath);
        dram_->setTracer(tracer_.get());
        for (auto &c : cores_)
            c->setTracer(tracer_.get());
    }
    if (config_.observe.statsEnabled()) {
        registry_ = std::make_unique<StatsRegistry>(
            [this](StatsSample &out) { emitStats(out); });
        registry_->setMeta("config", configSignature(config_));
        registry_->setMeta("threads", std::to_string(n));
        registry_->setMeta("channels", std::to_string(dram_->channels()));
        if (topo.nontrivial()) {
            registry_->setMeta("sockets", std::to_string(topo.sockets));
            registry_->setMeta("cores", std::to_string(cores));
        }
    }
    if (config_.observe.any()) {
        // panic()/watchdog post-mortem: flush whatever observability
        // outputs are configured before the process dies.  The handle
        // scopes teardown to our own installation so concurrent
        // systems in a parallel sweep don't clear each other's hook.
        panicHook_ = setPanicHook([this] { exportObservability(); });
    }

    prewarmCaches(apps);
}

SmtSystem::~SmtSystem()
{
    clearPanicHook(panicHook_);
    if (tracer_) {
        dram_->setTracer(nullptr);
        for (auto &c : cores_)
            c->setTracer(nullptr);
    }
}

ControllerStats
SmtSystem::aggDramStats() const
{
    ControllerStats agg = dram_->aggregateStats();
    // Interconnect queue waits join the who-stalled-whom picture; on
    // one socket the link matrix is empty and this is a no-op.
    agg.interference.merge(router_->linkInterference());
    return agg;
}

std::uint64_t
SmtSystem::committedOf(ThreadId tid) const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->perf(tid).committedInsts;
    return total;
}

std::uint64_t
SmtSystem::grandCommitted() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores_)
        total += c->totalCommittedInsts();
    return total;
}

std::vector<std::uint64_t>
SmtSystem::perThreadReads() const
{
    // One entry per thread, whether or not it completed a read.
    std::vector<std::uint64_t> reads = dram_->perThreadReads();
    reads.resize(config_.core.numThreads, 0);
    return reads;
}

void
SmtSystem::emitStats(StatsSample &out) const
{
    // One aggregation per sample: every DRAM, power and hammer stat
    // below reads these.  Power is read through synced copies, one
    // per channel, so sampling never moves a meter.
    const ControllerStats dram = aggDramStats();
    const PowerStats power = dram_->aggregatePowerStats(now_);
    const HammerStats hammer = dram_->aggregateHammerStats();
    const std::vector<std::uint64_t> reads = perThreadReads();
    const std::uint32_t n = config_.core.numThreads;
    const std::uint32_t channels = dram_->channels();
    std::vector<PowerModel> meters;
    meters.reserve(channels);
    for (std::uint32_t c = 0; c < channels; ++c)
        meters.push_back(dram_->channel(c).powerAt(now_));

    out.scalar("dram.reads", dram.reads);
    out.scalar("dram.writes", dram.writes);
    out.scalar("dram.row_hits", dram.rowHits);
    out.scalar("dram.row_conflicts", dram.rowConflicts);
    out.scalar("dram.row_miss_rate", dram.rowMissRate());
    out.scalar("dram.refreshes", dram.refreshes);
    out.scalar("dram.outstanding", dram_->outstandingRequests());
    for (std::uint32_t c = 0; c < channels; ++c) {
        const MemoryController &mc = dram_->channel(c);
        const std::string ch = "dram.ch" + std::to_string(c) + ".";
        out.scalar(ch + "queued_reads", mc.queuedReads());
        out.scalar(ch + "reads", mc.stats().reads);
    }

    // Energy/power breakdown.
    out.scalar("dram.power.total_energy_nj", power.totalEnergy);
    out.scalar("dram.power.background_energy_nj", power.backgroundEnergy);
    out.scalar("dram.power.activate_energy_nj", power.activateEnergy);
    out.scalar("dram.power.read_energy_nj", power.readEnergy);
    out.scalar("dram.power.write_energy_nj", power.writeEnergy);
    out.scalar("dram.power.refresh_energy_nj", power.refreshEnergy);
    out.scalar("dram.power.scrub_energy_nj", power.scrubEnergy);
    out.scalar("dram.power.avg_power_mw",
               power.averagePowerMw(config_.dram.timing.cpuMhz,
                                    now_ - statsResetAt_));
    out.scalar("dram.power.exit_penalty_cycles", power.exitPenaltyCycles);
    out.scalar("dram.power.refreshes_suppressed",
               power.refreshesSuppressed);
    out.scalar("dram.power.powerdown_entries", power.powerdownEntries);
    out.scalar("dram.power.self_refresh_entries", power.selfRefreshEntries);
    out.scalar("dram.power.active_cycles", power.activeCycles);
    out.scalar("dram.power.powerdown_fast_cycles",
               power.powerdownFastCycles);
    out.scalar("dram.power.powerdown_slow_cycles",
               power.powerdownSlowCycles);
    out.scalar("dram.power.self_refresh_cycles", power.selfRefreshCycles);
    out.histogram("dram.power.low_power_span", power.lowPowerSpanHist);
    for (std::uint32_t c = 0; c < channels; ++c) {
        const PowerModel &meter = meters[c];
        const std::string ch = "dram.ch" + std::to_string(c) + ".";
        out.scalar(ch + "energy_nj", meter.stats().totalEnergy);
        for (std::uint32_t k = 0; k < meter.ranks(); ++k) {
            out.scalar(ch + "rank" + std::to_string(k) + ".energy_nj",
                       meter.rankEnergy(k));
        }
    }
    out.scalar("dram.power.mitigation_energy_nj", power.mitigationEnergy);

    // Per-channel injected-fault counters.  Emitted even when
    // injection is off (all zeros): sweeps comparing faulty vs clean
    // configs then diff identical column sets.
    for (std::uint32_t c = 0; c < channels; ++c) {
        const FaultStats &f = dram_->channel(c).faultStats();
        const std::string p = "dram.ch" + std::to_string(c) + ".faults.";
        out.scalar(p + "bus_stalls", f.busStalls);
        out.scalar(p + "bus_stall_cycles", f.busStallCycles);
        out.scalar(p + "read_errors", f.readErrors);
        out.scalar(p + "enqueue_delays", f.enqueueDelays);
        out.scalar(p + "enqueue_delay_cycles", f.enqueueDelayCycles);
        out.scalar(p + "ecc_single_bit", f.eccSingleBit);
        out.scalar(p + "ecc_multi_bit", f.eccMultiBit);
    }

    // Rowhammer disturbance/mitigation counters (zeros when the
    // model is off, same diff-ability rationale as above).
    out.scalar("dram.hammer.activations", hammer.activations);
    out.scalar("dram.hammer.threshold_crossings", hammer.thresholdCrossings);
    out.scalar("dram.hammer.victim_flips", hammer.victimFlips);
    out.scalar("dram.hammer.victim_corrected", hammer.victimCorrected);
    out.scalar("dram.hammer.victim_uncorrectable",
               hammer.victimUncorrectable);
    out.scalar("dram.hammer.silent_corruptions", hammer.silentCorruptions);
    out.scalar("dram.hammer.flips_scrubbed", hammer.flipsScrubbed);
    out.scalar("dram.hammer.window_resets", hammer.windowResets);
    out.scalar("dram.hammer.mitigations_requested",
               hammer.mitigationsRequested);
    out.scalar("dram.hammer.mitigations_issued", hammer.mitigationsIssued);
    out.scalar("dram.hammer.mitigation_cycles", hammer.mitigationCycles);
    out.scalar("dram.hammer.tracker_evictions", hammer.trackerEvictions);
    for (std::uint32_t c = 0; c < channels; ++c) {
        const HammerStats &h = dram_->channel(c).hammerStats();
        const std::string ch = "dram.ch" + std::to_string(c) + ".";
        out.scalar(ch + "hammer.victim_flips", h.victimFlips);
        out.scalar(ch + "hammer.mitigations_issued", h.mitigationsIssued);
    }

    // Per-thread CPU counters, summed over cores (a thread's commits
    // follow it across migrations).
    for (std::uint32_t t = 0; t < n; ++t) {
        const auto tid = static_cast<ThreadId>(t);
        std::uint32_t occ = 0, rob_hw = 0, iq_hw = 0;
        for (const auto &c : cores_) {
            occ += c->robOccupancy(tid);
            rob_hw = std::max(rob_hw, c->robHighWater(tid));
            iq_hw = std::max(iq_hw, c->intIqHighWater(tid));
        }
        const std::string p = "cpu.t" + std::to_string(t) + ".";
        out.scalar(p + "committed", committedOf(tid));
        out.scalar(p + "rob_occupancy", occ);
        out.scalar(p + "rob_high_water", rob_hw);
        out.scalar(p + "iq_high_water", iq_hw);
        out.scalar(p + "dram_reads", reads[t]);
    }

    // Latency-blame attribution (stats schema v2): aggregate cycle
    // totals + per-request distributions per component, the per-thread
    // DRAM-side CPI stack, and the who-stalled-whom matrix.
    const auto component = [](std::size_t c) {
        return std::string(blameComponentName(static_cast<BlameComponent>(c)));
    };
    for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
        out.scalar("dram.blame." + component(c) + "_cycles",
                   dram.blameTotals.cycles[c]);
        out.histogram("dram.blame." + component(c), dram.blameHist[c]);
    }
    for (std::uint32_t t = 0; t < n; ++t) {
        const LatencyBlame blame = t < dram.perThreadBlame.size()
                                       ? dram.perThreadBlame[t]
                                       : LatencyBlame{};
        const std::string p = "cpu.t" + std::to_string(t) + ".blame.";
        for (std::size_t c = 0; c < kNumBlameComponents; ++c)
            out.scalar(p + component(c) + "_cycles", blame.cycles[c]);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::string p =
            "dram.interference.t" + std::to_string(i) + ".";
        const auto blocked = static_cast<ThreadId>(i);
        out.scalar(p + "system", dram.interference.at(blocked, kThreadNone));
        for (std::uint32_t j = 0; j < n; ++j) {
            out.scalar(p + "t" + std::to_string(j),
                       dram.interference.at(blocked,
                                            static_cast<ThreadId>(j)));
        }
        out.scalar(p + "total", dram.interference.rowSum(blocked));
    }

    // Bounded-buffer trace drops: a truncated trace must be visible
    // in the stats JSON, not only in the file's own gaps.
    out.scalar("trace.dropped_events",
               tracer_ ? tracer_->droppedEvents() : 0);

    // Per-channel power-state residency and mitigation activity, as
    // scalars so sampleEpoch() turns them into epoch time series
    // alongside the aggregate residency counters above.
    for (std::uint32_t c = 0; c < channels; ++c) {
        const MemoryController &mc = dram_->channel(c);
        const PowerStats &p = meters[c].stats();
        const std::string ch = "dram.ch" + std::to_string(c) + ".";
        out.scalar(ch + "power.active_cycles", p.activeCycles);
        out.scalar(ch + "power.powerdown_fast_cycles",
                   p.powerdownFastCycles);
        out.scalar(ch + "power.powerdown_slow_cycles",
                   p.powerdownSlowCycles);
        out.scalar(ch + "power.self_refresh_cycles", p.selfRefreshCycles);
        out.scalar(ch + "hammer.mitigation_cycles",
                   mc.hammerStats().mitigationCycles);
    }

    // Distribution views.
    out.histogram("dram.read_latency", dram.readLatencyHist);
    out.histogram("dram.read_queue_depth", dram.queueDepthHist);
    out.histogram("dram.row_hit_run", dram.rowHitRunHist);
    out.histogram("dram.bandwidth_share_pct", bandwidthShares(reads));

    // --- stats schema v3: the numa.* block, only on a nontrivial
    // topology, so a one-core machine exports the v2 key set under
    // the v3 stamp. ---------------------------------------------------
    if (!config_.topology.nontrivial())
        return;
    const NumaStats &numa = router_->stats();
    out.scalar("numa.local_reads", numa.localReads);
    out.scalar("numa.remote_reads", numa.remoteReads);
    out.scalar("numa.remote_read_frac", numa.remoteReadFrac());
    out.scalar("numa.local_writes", numa.localWrites);
    out.scalar("numa.remote_writes", numa.remoteWrites);
    out.scalar("numa.outbound_cycles", numa.outboundCycles);
    out.scalar("numa.return_cycles", numa.returnCycles);
    out.scalar("numa.link_queue_cycles", numa.linkQueueCycles);
    out.scalar("numa.link_transfers", numa.linkTransfers);
    out.scalar("numa.migrations", numa.migrations);
    out.scalar("numa.migration_stall_cycles", numa.migrationStallCycles);
    for (std::uint32_t s = 0; s < config_.topology.sockets; ++s) {
        const ControllerStats socket = dram_->socketStats(s);
        const std::string p = "numa.s" + std::to_string(s) + ".";
        out.scalar(p + "reads", socket.reads);
        out.scalar(p + "writes", socket.writes);
        out.scalar(p + "row_hits", socket.rowHits);
    }
    for (std::uint32_t t = 0; t < n; ++t) {
        const std::string p = "numa.t" + std::to_string(t) + ".";
        out.scalar(p + "remote_reads", t < numa.perThreadRemoteReads.size()
                                           ? numa.perThreadRemoteReads[t]
                                           : 0);
        out.scalar(p + "return_cycles",
                   t < numa.perThreadReturnCycles.size()
                       ? numa.perThreadReturnCycles[t]
                       : 0);
        out.scalar(p + "core", threadCore_[t]);
    }
}

void
SmtSystem::sampleEpoch()
{
    if (registry_)
        registry_->sampleEpoch(now_);
    if (tracer_) {
        // Counter tracks: live queue depth per channel, ROB occupancy
        // summed over threads — render as stacked area charts in
        // Perfetto.
        for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
            tracer_->counter(
                tracePidChannel(c), "queued_reads", now_,
                static_cast<double>(dram_->channel(c).queuedReads()));
        }
        double rob_total = 0.0;
        for (std::uint32_t t = 0; t < config_.core.numThreads; ++t) {
            for (const auto &c : cores_)
                rob_total +=
                    c->robOccupancy(static_cast<ThreadId>(t));
        }
        tracer_->counter(kTracePidCpu, "rob_occupancy", now_,
                         rob_total);
        // Blame, residency, and mitigation dynamics per channel.
        // Cumulative counters: Perfetto differentiates visually, and
        // the monotone series diff cleanly across kernels.
        const auto &blame_counter = blameCounterNames();
        for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
            const MemoryController &mc = dram_->channel(c);
            const int pid = tracePidChannel(c);
            const ControllerStats &s = mc.stats();
            for (std::size_t k = 0; k < kNumBlameComponents; ++k) {
                tracer_->counter(
                    pid, blame_counter[k].c_str(), now_,
                    static_cast<double>(s.blameTotals.cycles[k]));
            }
            if (config_.dram.power.enabled) {
                const PowerStats p = mc.powerAt(now_).stats();
                tracer_->counter(
                    pid, "power_active_cycles", now_,
                    static_cast<double>(p.activeCycles));
                tracer_->counter(
                    pid, "power_lowpower_cycles", now_,
                    static_cast<double>(p.powerdownFastCycles +
                                        p.powerdownSlowCycles +
                                        p.selfRefreshCycles));
            }
            if (config_.dram.hammer.mitigates()) {
                tracer_->counter(
                    pid, "hammer_mitigation_cycles", now_,
                    static_cast<double>(
                        mc.hammerStats().mitigationCycles));
            }
        }
    }
}

void
SmtSystem::exportObservability()
{
    if (registry_) {
        if (!config_.observe.statsJsonPath.empty()) {
            std::ofstream os(config_.observe.statsJsonPath);
            if (os)
                registry_->writeJson(os, now_);
            else
                warn("cannot write stats JSON to %s",
                     config_.observe.statsJsonPath.c_str());
        }
        if (!config_.observe.statsCsvPath.empty()) {
            std::ofstream os(config_.observe.statsCsvPath);
            if (os)
                registry_->writeCsv(os, now_);
            else
                warn("cannot write stats CSV to %s",
                     config_.observe.statsCsvPath.c_str());
        }
    }
    if (tracer_)
        tracer_->flush();
}

void
SmtSystem::prewarmCaches(const std::vector<AppProfile> &apps)
{
    // Structural warm-up, mirroring the paper's fast-forward phase:
    // hot sets into the L1D and the leading slice of each cold set
    // into L2/L3.  Threads interleave page-sized chunks so the
    // shared caches end up fairly mixed, as they would after real
    // co-scheduled fast-forwarding.  Each thread warms through the
    // hierarchy of the core it was placed on, which is also what
    // makes first-touch frames land on the right home socket.
    const std::uint64_t chunk = config_.hierarchy.pageBytes;
    const std::uint64_t cold_cap = config_.hierarchy.l3.sizeBytes;

    // A Streaming/Strided/RowHammer cold set larger than the L3 is
    // compulsory missing in steady state (every access is a new line
    // forever), so pre-warming it would fake locality the workload
    // does not have.  Anything that fits the L3 is resident in steady
    // state and is pre-warmed whatever its pattern.
    auto cold_prewarm_bytes = [cold_cap](const AppProfile &a) {
        if (a.coldBytes > cold_cap &&
            (a.coldPattern == AccessPattern::Streaming ||
             a.coldPattern == AccessPattern::Strided ||
             a.coldPattern == AccessPattern::RowHammer)) {
            return std::uint64_t{0};
        }
        return std::min<std::uint64_t>(a.coldBytes, cold_cap);
    };

    // Lay out each thread's address space first, the way a program
    // initializing its data before the measured region would: code,
    // hot set, and the full cold region each get contiguous frame
    // blocks.  Array strides and array-to-array offsets then keep
    // their power-of-two structure in physical memory, which is what
    // the DRAM mapping schemes of Section 5.4 react to.
    for (size_t i = 0; i < apps.size(); ++i) {
        const auto tid = static_cast<ThreadId>(i);
        const AppProfile &a = apps[i];
        Hierarchy &h = *hierarchies_[threadCore_[i]];
        h.preallocate(tid, SyntheticStream::kCodeBase, a.codeBytes);
        h.preallocate(tid, SyntheticStream::kHotBase, a.hotBytes);
        h.preallocate(tid, SyntheticStream::kColdBase, a.coldBytes);
    }

    std::uint64_t max_bytes = 0;
    for (const AppProfile &a : apps) {
        max_bytes = std::max(max_bytes, a.hotBytes);
        max_bytes = std::max(max_bytes, cold_prewarm_bytes(a));
    }

    // One range list per hierarchy, in chunk-major, thread-interleaved
    // order, warmed in one call each.  Every page was mapped above, so
    // warming one hierarchy after another allocates no frame.
    std::vector<std::vector<Hierarchy::PrewarmRange>> ranges(
        hierarchies_.size());
    for (std::uint64_t base = 0; base < max_bytes; base += chunk) {
        for (size_t i = 0; i < apps.size(); ++i) {
            const auto tid = static_cast<ThreadId>(i);
            const AppProfile &a = apps[i];
            std::vector<Hierarchy::PrewarmRange> &r = ranges[threadCore_[i]];
            if (base < a.hotBytes) {
                r.push_back({tid, SyntheticStream::kHotBase + base,
                             std::min(chunk, a.hotBytes - base), true});
            }
            const std::uint64_t cold_limit = cold_prewarm_bytes(a);
            if (base < cold_limit) {
                r.push_back({tid, SyntheticStream::kColdBase + base,
                             std::min(chunk, cold_limit - base), false});
            }
        }
    }
    for (size_t c = 0; c < hierarchies_.size(); ++c)
        hierarchies_[c]->prewarm(ranges[c]);
}

void
SmtSystem::stepCycle()
{
    ++now_;
    events_.runUntil(now_);
    dram_->tick(now_);
    for (auto &h : hierarchies_)
        h->tick(now_);
    for (auto &c : cores_)
        c->cycle(now_);
}

std::uint64_t
SmtSystem::skipToNextEvent(Cycle clamp)
{
    // Cores first, with early-outs: in an active compute phase a
    // core answers now_ + 1 almost immediately and the (costlier)
    // DRAM scan never runs, so event-driven mode adds near-zero
    // overhead exactly where it cannot win anything.
    Cycle next = kCycleNever;
    for (const auto &c : cores_) {
        next = std::min(next, c->nextEventAt(now_));
        if (next <= now_ + 1)
            return 0;
    }
    for (const auto &h : hierarchies_) {
        if (h->pendingWritebacks() > 0)
            return 0;  // writeback drain retries every cycle
    }
    // A draining migration checks quiescence every cycle; both
    // kernels must observe the handover on the same cycle.
    if (!pendingMigrations_.empty())
        return 0;
    next = std::min(next, events_.nextEventAt());
    if (next <= now_ + 1)
        return 0;
    next = std::min(next, dram_->nextEventAt(now_));
    if (next <= now_ + 1)
        return 0;
    if (next == kCycleNever && clamp == kCycleNever) {
        // The per-cycle kernel would spin forever here (no watchdog
        // to catch it); a diagnosed abort beats a silent hang.
        dumpState(std::cerr);
        panic("event-driven kernel: no component reports a pending "
              "event at cycle %llu and no watchdog/epoch deadline "
              "bounds the jump — the machine is deadlocked",
              (unsigned long long)now_);
    }
    next = std::min(next, clamp);
    if (next <= now_ + 1)
        return 0;
    // Every cycle in (now_, next) is a proven no-op; replay its only
    // side effects (the cores' cycle and rotation counters) and land
    // one cycle short so the event cycle itself is stepped for real.
    const std::uint64_t skipped = next - now_ - 1;
    for (auto &c : cores_)
        c->skipCycles(skipped);
    now_ = next - 1;
    return skipped;
}

void
SmtSystem::sampleConcurrency(RunResult &res, std::uint64_t cycles) const
{
    if (cycles == 0 || !dram_->busy())
        return;
    const size_t outstanding = dram_->outstandingRequests();
    res.outstandingHist.sample(outstanding, cycles);
    if (outstanding >= 2)
        res.threadsHist.sample(dram_->distinctThreadsOutstanding(), cycles);
}

void
SmtSystem::considerMigration()
{
    // Refresh the per-epoch baselines whatever we decide, so the
    // next epoch judges only its own traffic.
    const std::uint32_t n = config_.core.numThreads;
    const auto &remote = router_->stats().perThreadRemoteReads;
    std::vector<std::uint64_t> delta(n, 0);
    for (std::uint32_t t = 0; t < n; ++t)
        delta[t] = remote[t] - remoteBase_[t];
    const auto refresh = [&] {
        for (std::uint32_t t = 0; t < n; ++t) {
            remoteBase_[t] = remote[t];
            toSocketBase_[t] = router_->readsToSocket(t);
        }
    };

    if (!pendingMigrations_.empty()) {
        refresh();
        return;
    }

    // Candidate: the thread paying the most remote reads this epoch.
    ThreadId cand = kThreadNone;
    for (std::uint32_t t = 0; t < n; ++t) {
        if (delta[t] >= kMigrateThreshold &&
            (cand == kThreadNone || delta[t] > delta[cand]))
            cand = static_cast<ThreadId>(t);
    }
    if (cand == kThreadNone) {
        refresh();
        return;
    }

    // Where does its data live?  The socket it read most from.
    const auto &to_socket = router_->readsToSocket(cand);
    std::uint32_t dominant = 0;
    std::uint64_t best = 0;
    for (std::uint32_t s = 0; s < config_.topology.sockets; ++s) {
        const std::uint64_t d = to_socket[s] - toSocketBase_[cand][s];
        if (d > best) {
            best = d;
            dominant = s;
        }
    }
    const std::uint32_t from = threadCore_[cand];
    if (router_->socketOf(from) == dominant) {
        refresh();
        return;
    }

    const std::uint32_t ways =
        config_.topology.effectiveWays(n);
    std::vector<std::uint32_t> load(config_.topology.totalCores(), 0);
    for (std::uint32_t t = 0; t < n; ++t)
        ++load[threadCore_[t]];

    const std::uint32_t lo = dominant * config_.topology.coresPerSocket;
    const std::uint32_t hi = lo + config_.topology.coresPerSocket;
    std::uint32_t target = kThreadNone;
    for (std::uint32_t c = lo; c < hi; ++c) {
        if (load[c] < ways) {
            target = c;
            break;
        }
    }

    if (target != std::uint32_t{kThreadNone}) {
        cores_[from]->bindStream(cand, nullptr);
        pendingMigrations_.push_back({cand, from, target, now_});
        refresh();
        return;
    }

    // Socket full: swap with its least remote-hungry thread, with
    // 2x hysteresis so a marginal difference never ping-pongs.
    ThreadId victim = kThreadNone;
    for (std::uint32_t t = 0; t < n; ++t) {
        if (router_->socketOf(threadCore_[t]) != dominant)
            continue;
        if (victim == kThreadNone || delta[t] < delta[victim])
            victim = static_cast<ThreadId>(t);
    }
    if (victim != kThreadNone &&
        delta[cand] >= 2 * delta[victim] + kMigrateThreshold) {
        const std::uint32_t vcore = threadCore_[victim];
        cores_[from]->bindStream(cand, nullptr);
        cores_[vcore]->bindStream(victim, nullptr);
        pendingMigrations_.push_back({cand, from, vcore, now_});
        pendingMigrations_.push_back({victim, vcore, from, now_});
    }
    refresh();
}

void
SmtSystem::serviceMigrations()
{
    for (std::size_t i = 0; i < pendingMigrations_.size();) {
        const PendingMigration &m = pendingMigrations_[i];
        if (cores_[m.from]->quiescent(m.tid)) {
            cores_[m.to]->migrateIn(
                m.tid, streams_[m.tid].get(),
                now_ + config_.topology.migrationCost);
            threadCore_[m.tid] = m.to;
            router_->noteMigration(now_ - m.since +
                                   config_.topology.migrationCost);
            pendingMigrations_.erase(pendingMigrations_.begin() +
                                     static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

RunResult
SmtSystem::run(std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    // A zero budget closes the window at once: every IPC is 0 / 0.
    fatal_if(measure_insts == 0,
             "a run needs a measurement budget of at least one "
             "instruction per thread");
    const std::uint32_t n = config_.core.numThreads;
    const bool migrating =
        config_.topology.placement == PlacementPolicy::Migrate &&
        config_.topology.migrationEpoch > 0;

    auto all_committed = [this, n](std::uint64_t target,
                                   std::uint64_t grand_base,
                                   const std::vector<std::uint64_t>
                                       &base) {
        // Cheap necessary condition first: the grand total must reach
        // n*target before every thread possibly has, so most cycles
        // skip the per-thread scan entirely.
        if (grandCommitted() - grand_base <
            static_cast<std::uint64_t>(n) * target)
            return false;
        for (ThreadId t = 0; t < n; ++t) {
            if (committedOf(t) - base[t] < target)
                return false;
        }
        return true;
    };

    // Deadlock watchdog: every thread must commit something within
    // the configured window or the model has a bug worth aborting
    // on; it fires with a full state dump instead of hanging.
    Watchdog watchdog(config_.progressWindow, "commit progress");
    watchdog.kick(now_);
    const auto dump = [this] { dumpState(std::cerr); };

    // Skip-to-next-event kernel: jump over provably idle stretches
    // instead of ticking them.  Tracing runs the same way: the cores
    // replay the one trace effect a skipped cycle has (fetch-stall
    // spans opening on its first cycle) in skipCycles().
    const bool event_driven = config_.kernel == KernelMode::EventDriven;
    // The watchdog's expiry cycle must be real-stepped so it fires on
    // exactly the same cycle as under the per-cycle kernel.
    const auto watchdog_clamp = [&watchdog] {
        return watchdog.bound() > 0
                   ? watchdog.lastProgressAt() + watchdog.bound() + 1
                   : kCycleNever;
    };
    // Migration epochs are clamps too: the decision cycle must be
    // real-stepped so both kernels decide on identical state.
    const auto migrate_clamp = [this, migrating](Cycle clamp) {
        return migrating
                   ? std::min(clamp, lastMigrateAt_ +
                                         config_.topology
                                             .migrationEpoch)
                   : clamp;
    };
    const auto os_tick = [this, migrating] {
        if (migrating &&
            now_ - lastMigrateAt_ >= config_.topology.migrationEpoch) {
            lastMigrateAt_ = now_;
            considerMigration();
        }
        if (!pendingMigrations_.empty())
            serviceMigrations();
    };

    // ---- Warm-up phase (caches, predictor, DRAM state) ----
    std::vector<std::uint64_t> zero(n, 0);
    std::uint64_t last_total = grandCommitted();
    while (!all_committed(warmup_insts, 0, zero)) {
        if (event_driven)
            skipToNextEvent(migrate_clamp(watchdog_clamp()));
        stepCycle();
        os_tick();
        const std::uint64_t total = grandCommitted();
        if (total != last_total) {
            last_total = total;
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Reset statistics at the measurement boundary ----
    for (auto &h : hierarchies_)
        h->resetStats();
    dram_->resetStats(now_);
    for (auto &c : cores_)
        c->resetHighWater();
    router_->resetStats();
    remoteBase_.assign(n, 0);
    for (auto &per : toSocketBase_)
        per.assign(per.size(), 0);
    lastMigrateAt_ = now_;
    lastEpochAt_ = now_;
    statsResetAt_ = now_;

    std::vector<std::uint64_t> base(n);
    std::uint64_t base_mispredicts = 0;
    std::uint64_t base_branches = 0;
    for (ThreadId t = 0; t < n; ++t) {
        base[t] = committedOf(t);
        for (const auto &c : cores_) {
            base_branches += c->perf(t).branches;
            base_mispredicts += c->perf(t).mispredicts;
        }
    }
    const std::uint64_t grand_base = grandCommitted();
    const Cycle start = now_;
    std::uint64_t int_issue_base = 0;
    for (const auto &c : cores_)
        int_issue_base += c->intIssueActiveCycles();

    RunResult res;
    res.ipc.assign(n, 0.0);
    res.committed.assign(n, 0);
    std::vector<Cycle> finish(n, 0);

    // ---- Measured phase ----
    while (!all_committed(measure_insts, grand_base, base)) {
        if (event_driven) {
            // Epoch boundaries are clamps too: the boundary cycle is
            // real-stepped, so sampleEpoch() fires on exactly the
            // cycles the per-cycle kernel samples.
            Cycle clamp = migrate_clamp(watchdog_clamp());
            if (config_.observe.epoch > 0) {
                clamp = std::min(clamp,
                                 lastEpochAt_ + config_.observe.epoch);
            }
            // Figures 4 and 5 over the skipped window, whose DRAM
            // state the per-cycle kernel would sample once per cycle.
            sampleConcurrency(res, skipToNextEvent(clamp));
        }
        stepCycle();
        os_tick();

        // Observability epoch boundary (off unless epoch > 0).
        if (config_.observe.epoch > 0 &&
            now_ - lastEpochAt_ >= config_.observe.epoch) {
            lastEpochAt_ = now_;
            sampleEpoch();
        }

        // Figures 4 and 5: this cycle's DRAM concurrency.
        sampleConcurrency(res, 1);

        // Per-thread finish times only move on a cycle where some
        // thread committed, i.e. when the grand total moved — exact,
        // since the counters are monotonic.  Most cycles take only
        // this one comparison.
        const std::uint64_t total = grandCommitted();
        if (total != last_total) {
            last_total = total;
            for (ThreadId t = 0; t < n; ++t) {
                if (finish[t] == 0 &&
                    committedOf(t) - base[t] >= measure_insts)
                    finish[t] = now_;
            }
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Collect results ----
    res.measuredCycles = now_ - start;
    for (ThreadId t = 0; t < n; ++t) {
        if (finish[t] == 0)
            finish[t] = now_;
        res.committed[t] = committedOf(t) - base[t];
        res.ipc[t] = static_cast<double>(measure_insts) /
                     static_cast<double>(finish[t] - start);
    }

    res.dram = aggDramStats();
    res.power = dram_->aggregatePowerStats(now_);
    res.hammer = dram_->aggregateHammerStats();
    if (config_.topology.nontrivial())
        res.numa = router_->stats();
    std::uint64_t int_issue = 0;
    for (const auto &c : cores_)
        int_issue += c->intIssueActiveCycles();
    res.intIssueActiveFrac =
        res.measuredCycles
            ? static_cast<double>(int_issue - int_issue_base) /
                  static_cast<double>(res.measuredCycles)
            : 0.0;

    std::uint64_t branches = 0, mispredicts = 0;
    for (ThreadId t = 0; t < n; ++t) {
        for (const auto &c : cores_) {
            branches += c->perf(t).branches;
            mispredicts += c->perf(t).mispredicts;
        }
    }
    branches -= base_branches;
    mispredicts -= base_mispredicts;
    res.branchMispredictRate =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;

    exportObservability();
    return res;
}

void
SmtSystem::dumpState(std::ostream &os) const
{
    os << "=== SmtSystem state dump (cycle " << now_ << ") ===\n";
    for (ThreadId t = 0; t < config_.core.numThreads; ++t) {
        os << "  thread " << t << ": committed=" << committedOf(t)
           << " core=" << threadCore_[t] << "\n";
    }
    dram_->dumpState(os);
    os << "=== end SmtSystem state dump ===\n";
}

} // namespace smtdram
