#include "sim/smt_system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/watchdog.hh"
#include "sim/experiment.hh"

namespace smtdram
{

namespace
{

/**
 * Process-wide kernel override: SMTDRAM_KERNEL=cycle|event flips
 * every SmtSystem built in this process, so whole harnesses (the
 * golden suite, the benches) run the other kernel as a CI matrix leg
 * without plumbing a flag through every construction site.  Read
 * once; both kernels are proven byte-identical so this never changes
 * results, only how fast they are produced.
 */
KernelMode
kernelMode(KernelMode configured)
{
    static const char *env = std::getenv("SMTDRAM_KERNEL");
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

} // namespace

SmtSystem::SmtSystem(const SystemConfig &config,
                     const std::vector<AppProfile> &apps,
                     std::uint64_t seed)
    : config_(config)
{
    config_.kernel = kernelMode(config_.kernel);
    fatal_if(apps.size() != config_.core.numThreads,
             "%zu application profiles for %u hardware threads",
             apps.size(), config_.core.numThreads);

    dram_ = std::make_unique<DramSystem>(config_.dram,
                                         config_.scheduler);
    hierarchy_ = std::make_unique<Hierarchy>(
        config_.hierarchy, *dram_, events_, config_.core.numThreads);
    core_ = std::make_unique<SmtCore>(config_.core, *hierarchy_);

    streams_.reserve(apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        streams_.push_back(std::make_unique<SyntheticStream>(
            apps[i], seed + i * 0x1000'0001ULL));
        core_->bindStream(static_cast<ThreadId>(i),
                          streams_.back().get());
    }

    if (config_.observe.traceEnabled()) {
        tracer_ = std::make_unique<Tracer>(config_.observe.tracePath);
        dram_->setTracer(tracer_.get());
        core_->setTracer(tracer_.get());
    }
    if (config_.observe.statsEnabled()) {
        registry_ = std::make_unique<StatsRegistry>();
        registerStats();
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
        core_->setTracer(nullptr);
    }
}

void
SmtSystem::registerStats()
{
    StatsRegistry &r = *registry_;
    r.setMeta("config", configSignature(config_));
    r.setMeta("threads", std::to_string(config_.core.numThreads));
    r.setMeta("channels", std::to_string(dram_->channels()));

    // DRAM aggregate counters.  Each provider re-aggregates on call;
    // epochs are sparse so the cost is irrelevant.
    r.registerScalar("dram.reads", [this] {
        return static_cast<double>(dram_->aggregateStats().reads);
    });
    r.registerScalar("dram.writes", [this] {
        return static_cast<double>(dram_->aggregateStats().writes);
    });
    r.registerScalar("dram.row_hits", [this] {
        return static_cast<double>(dram_->aggregateStats().rowHits);
    });
    r.registerScalar("dram.row_conflicts", [this] {
        return static_cast<double>(
            dram_->aggregateStats().rowConflicts);
    });
    r.registerScalar("dram.row_miss_rate", [this] {
        return dram_->aggregateStats().rowMissRate();
    });
    r.registerScalar("dram.refreshes", [this] {
        return static_cast<double>(dram_->aggregateStats().refreshes);
    });
    r.registerScalar("dram.outstanding", [this] {
        return static_cast<double>(dram_->outstandingRequests());
    });
    for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
        r.registerScalar(
            "dram.ch" + std::to_string(c) + ".queued_reads",
            [this, c] {
                return static_cast<double>(
                    dram_->channelQueuedReads(c));
            });
        r.registerScalar(
            "dram.ch" + std::to_string(c) + ".reads", [this, c] {
                return static_cast<double>(
                    dram_->channelStats(c).reads);
            });
    }

    // Energy/power breakdown.  The callers that sample the registry
    // (sampleEpoch, exportObservability) syncPower() first, so the
    // lazy background accounting is always current here.
    r.registerScalar("dram.power.total_energy_nj", [this] {
        return dram_->aggregatePowerStats().totalEnergy;
    });
    r.registerScalar("dram.power.background_energy_nj", [this] {
        return dram_->aggregatePowerStats().backgroundEnergy;
    });
    r.registerScalar("dram.power.activate_energy_nj", [this] {
        return dram_->aggregatePowerStats().activateEnergy;
    });
    r.registerScalar("dram.power.read_energy_nj", [this] {
        return dram_->aggregatePowerStats().readEnergy;
    });
    r.registerScalar("dram.power.write_energy_nj", [this] {
        return dram_->aggregatePowerStats().writeEnergy;
    });
    r.registerScalar("dram.power.refresh_energy_nj", [this] {
        return dram_->aggregatePowerStats().refreshEnergy;
    });
    r.registerScalar("dram.power.scrub_energy_nj", [this] {
        return dram_->aggregatePowerStats().scrubEnergy;
    });
    r.registerScalar("dram.power.avg_power_mw", [this] {
        return dram_->aggregatePowerStats().averagePowerMw(
            config_.dram.timing.cpuMhz, now_ - statsResetAt_);
    });
    r.registerScalar("dram.power.exit_penalty_cycles", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().exitPenaltyCycles);
    });
    r.registerScalar("dram.power.refreshes_suppressed", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().refreshesSuppressed);
    });
    r.registerScalar("dram.power.powerdown_entries", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().powerdownEntries);
    });
    r.registerScalar("dram.power.self_refresh_entries", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().selfRefreshEntries);
    });
    r.registerScalar("dram.power.active_cycles", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().activeCycles);
    });
    r.registerScalar("dram.power.powerdown_fast_cycles", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().powerdownFastCycles);
    });
    r.registerScalar("dram.power.powerdown_slow_cycles", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().powerdownSlowCycles);
    });
    r.registerScalar("dram.power.self_refresh_cycles", [this] {
        return static_cast<double>(
            dram_->aggregatePowerStats().selfRefreshCycles);
    });
    r.registerHistogram("dram.power.low_power_span", [this] {
        return dram_->aggregatePowerStats().lowPowerSpanHist;
    });
    for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
        r.registerScalar(
            "dram.ch" + std::to_string(c) + ".energy_nj", [this, c] {
                return dram_->channelPowerStats(c).totalEnergy;
            });
        for (std::uint32_t k = 0; k < dram_->powerRanks(); ++k) {
            r.registerScalar("dram.ch" + std::to_string(c) + ".rank" +
                                 std::to_string(k) + ".energy_nj",
                             [this, c, k] {
                                 return dram_->rankEnergy(c, k);
                             });
        }
    }
    r.registerScalar("dram.power.mitigation_energy_nj", [this] {
        return dram_->aggregatePowerStats().mitigationEnergy;
    });

    // Per-channel injected-fault counters.  Registered even when
    // injection is off (all zeros): sweeps comparing faulty vs clean
    // configs then diff identical column sets.
    for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
        const std::string p = "dram.ch" + std::to_string(c) +
                              ".faults.";
        r.registerScalar(p + "bus_stalls", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).busStalls);
        });
        r.registerScalar(p + "bus_stall_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).busStallCycles);
        });
        r.registerScalar(p + "read_errors", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).readErrors);
        });
        r.registerScalar(p + "enqueue_delays", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).enqueueDelays);
        });
        r.registerScalar(p + "enqueue_delay_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).enqueueDelayCycles);
        });
        r.registerScalar(p + "ecc_single_bit", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).eccSingleBit);
        });
        r.registerScalar(p + "ecc_multi_bit", [this, c] {
            return static_cast<double>(
                dram_->channelFaultStats(c).eccMultiBit);
        });
    }

    // Rowhammer disturbance/mitigation counters (zeros when the
    // model is off, same diff-ability rationale as above).
    r.registerScalar("dram.hammer.activations", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().activations);
    });
    r.registerScalar("dram.hammer.threshold_crossings", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().thresholdCrossings);
    });
    r.registerScalar("dram.hammer.victim_flips", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().victimFlips);
    });
    r.registerScalar("dram.hammer.victim_corrected", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().victimCorrected);
    });
    r.registerScalar("dram.hammer.victim_uncorrectable", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().victimUncorrectable);
    });
    r.registerScalar("dram.hammer.silent_corruptions", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().silentCorruptions);
    });
    r.registerScalar("dram.hammer.flips_scrubbed", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().flipsScrubbed);
    });
    r.registerScalar("dram.hammer.window_resets", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().windowResets);
    });
    r.registerScalar("dram.hammer.mitigations_requested", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().mitigationsRequested);
    });
    r.registerScalar("dram.hammer.mitigations_issued", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().mitigationsIssued);
    });
    r.registerScalar("dram.hammer.mitigation_cycles", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().mitigationCycles);
    });
    r.registerScalar("dram.hammer.tracker_evictions", [this] {
        return static_cast<double>(
            dram_->aggregateHammerStats().trackerEvictions);
    });
    for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
        const std::string p = "dram.ch" + std::to_string(c) +
                              ".hammer.";
        r.registerScalar(p + "victim_flips", [this, c] {
            return static_cast<double>(
                dram_->channelHammerStats(c).victimFlips);
        });
        r.registerScalar(p + "mitigations_issued", [this, c] {
            return static_cast<double>(
                dram_->channelHammerStats(c).mitigationsIssued);
        });
    }

    // Per-thread CPU counters.
    for (std::uint32_t t = 0; t < config_.core.numThreads; ++t) {
        const std::string p = "cpu.t" + std::to_string(t) + ".";
        const auto tid = static_cast<ThreadId>(t);
        r.registerScalar(p + "committed", [this, tid] {
            return static_cast<double>(
                core_->perf(tid).committedInsts);
        });
        r.registerScalar(p + "rob_occupancy", [this, tid] {
            return static_cast<double>(core_->robOccupancy(tid));
        });
        r.registerScalar(p + "rob_high_water", [this, tid] {
            return static_cast<double>(core_->robHighWater(tid));
        });
        r.registerScalar(p + "iq_high_water", [this, tid] {
            return static_cast<double>(core_->intIqHighWater(tid));
        });
        r.registerScalar(p + "dram_reads", [this, tid] {
            const auto &reads = dram_->perThreadReads();
            return tid < reads.size()
                       ? static_cast<double>(reads[tid])
                       : 0.0;
        });
    }

    // Latency-blame attribution (stats schema v2): aggregate cycle
    // totals + per-request distributions per component, the per-thread
    // DRAM-side CPI stack, and the who-stalled-whom matrix.
    for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
        const std::string name =
            blameComponentName(static_cast<BlameComponent>(c));
        r.registerScalar("dram.blame." + name + "_cycles", [this, c] {
            return static_cast<double>(
                dram_->aggregateStats().blameTotals.cycles[c]);
        });
        r.registerHistogram("dram.blame." + name, [this, c] {
            return dram_->aggregateStats().blameHist[c];
        });
    }
    for (std::uint32_t t = 0; t < config_.core.numThreads; ++t) {
        const std::string p = "cpu.t" + std::to_string(t) + ".blame.";
        for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
            const std::string name =
                blameComponentName(static_cast<BlameComponent>(c));
            r.registerScalar(p + name + "_cycles", [this, t, c] {
                const auto &per =
                    dram_->aggregateStats().perThreadBlame;
                return t < per.size()
                           ? static_cast<double>(per[t].cycles[c])
                           : 0.0;
            });
        }
    }
    for (std::uint32_t i = 0; i < config_.core.numThreads; ++i) {
        const std::string p =
            "dram.interference.t" + std::to_string(i) + ".";
        const auto blocked = static_cast<ThreadId>(i);
        r.registerScalar(p + "system", [this, blocked] {
            return static_cast<double>(
                dram_->aggregateStats().interference.at(blocked,
                                                        kThreadNone));
        });
        for (std::uint32_t j = 0; j < config_.core.numThreads; ++j) {
            const auto blocker = static_cast<ThreadId>(j);
            r.registerScalar(
                p + "t" + std::to_string(j), [this, blocked, blocker] {
                    return static_cast<double>(
                        dram_->aggregateStats().interference.at(
                            blocked, blocker));
                });
        }
        r.registerScalar(p + "total", [this, blocked] {
            return static_cast<double>(
                dram_->aggregateStats().interference.rowSum(blocked));
        });
    }

    // Bounded-buffer trace drops: a truncated trace must be visible
    // in the stats JSON, not only in the file's own gaps.
    r.registerScalar("trace.dropped_events", [this] {
        return tracer_ ? static_cast<double>(tracer_->droppedEvents())
                       : 0.0;
    });

    // Per-channel power-state residency and mitigation activity.
    // Registered as scalars so sampleEpoch() turns them into epoch
    // time series alongside the aggregate residency counters above.
    for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
        const std::string p = "dram.ch" + std::to_string(c) +
                              ".power.";
        r.registerScalar(p + "active_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelPowerStats(c).activeCycles);
        });
        r.registerScalar(p + "powerdown_fast_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelPowerStats(c).powerdownFastCycles);
        });
        r.registerScalar(p + "powerdown_slow_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelPowerStats(c).powerdownSlowCycles);
        });
        r.registerScalar(p + "self_refresh_cycles", [this, c] {
            return static_cast<double>(
                dram_->channelPowerStats(c).selfRefreshCycles);
        });
        r.registerScalar("dram.ch" + std::to_string(c) +
                             ".hammer.mitigation_cycles",
                         [this, c] {
                             return static_cast<double>(
                                 dram_->channelHammerStats(c)
                                     .mitigationCycles);
                         });
    }

    // Distribution views.
    r.registerHistogram("dram.read_latency", [this] {
        return dram_->aggregateStats().readLatencyHist;
    });
    r.registerHistogram("dram.read_queue_depth", [this] {
        return dram_->aggregateStats().queueDepthHist;
    });
    r.registerHistogram("dram.row_hit_run", [this] {
        return dram_->aggregateStats().rowHitRunHist;
    });
    r.registerHistogram("dram.bandwidth_share_pct", [this] {
        LogHistogram h;
        const auto &reads = dram_->perThreadReads();
        std::uint64_t total = 0;
        for (auto v : reads)
            total += v;
        if (total > 0) {
            // Round to nearest, matching run()'s bandwidthShareHist;
            // truncation biases every thread's share low.
            for (auto v : reads)
                h.sample((100 * v + total / 2) / total);
        }
        return h;
    });
}

void
SmtSystem::sampleEpoch()
{
    // Energy accounting is lazy; bring it current so the epoch's
    // power scalars describe [resetAt, now] and not a stale horizon.
    dram_->syncPower(now_);
    if (registry_)
        registry_->sampleEpoch(now_);
    if (tracer_) {
        // Counter tracks: live queue depth per channel, ROB occupancy
        // per thread — render as stacked area charts in Perfetto.
        for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
            tracer_->counter(
                tracePidChannel(c), "queued_reads", now_,
                static_cast<double>(dram_->channelQueuedReads(c)));
        }
        double rob_total = 0.0;
        for (std::uint32_t t = 0; t < config_.core.numThreads; ++t)
            rob_total += core_->robOccupancy(static_cast<ThreadId>(t));
        tracer_->counter(kTracePidCpu, "rob_occupancy", now_,
                         rob_total);
        // Blame, residency, and mitigation dynamics per channel.
        // Cumulative counters: Perfetto differentiates visually, and
        // the monotone series diff cleanly across kernels.
        static const char *const kBlameCounter[kNumBlameComponents] = {
            "blame_queueing",      "blame_sched_deferral",
            "blame_bank_conflict", "blame_bus_contention",
            "blame_refresh_stall", "blame_scrub",
            "blame_fault_retry",   "blame_ecc_overhead",
            "blame_power_exit",    "blame_hammer_mitigation",
            "blame_remote_access", "blame_intrinsic"};
        for (std::uint32_t c = 0; c < dram_->channels(); ++c) {
            const int pid = tracePidChannel(c);
            const ControllerStats &s = dram_->channelStats(c);
            for (std::size_t k = 0; k < kNumBlameComponents; ++k) {
                tracer_->counter(
                    pid, kBlameCounter[k], now_,
                    static_cast<double>(s.blameTotals.cycles[k]));
            }
            if (config_.dram.power.enabled) {
                const PowerStats &p = dram_->channelPowerStats(c);
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
                        dram_->channelHammerStats(c).mitigationCycles));
            }
        }
    }
}

void
SmtSystem::exportObservability()
{
    dram_->syncPower(now_);
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
    // co-scheduled fast-forwarding.
    const std::uint64_t line = config_.hierarchy.l1d.lineBytes;
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
        hierarchy_->preallocate(tid, SyntheticStream::kCodeBase,
                                a.codeBytes);
        hierarchy_->preallocate(tid, SyntheticStream::kHotBase,
                                a.hotBytes);
        hierarchy_->preallocate(tid, SyntheticStream::kColdBase,
                                a.coldBytes);
    }

    std::uint64_t max_bytes = 0;
    for (const AppProfile &a : apps) {
        max_bytes = std::max(max_bytes, a.hotBytes);
        max_bytes = std::max(max_bytes, cold_prewarm_bytes(a));
    }

    for (std::uint64_t base = 0; base < max_bytes; base += chunk) {
        for (size_t i = 0; i < apps.size(); ++i) {
            const auto tid = static_cast<ThreadId>(i);
            const AppProfile &a = apps[i];
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, a.hotBytes);
                 off += line) {
                hierarchy_->prewarmLine(
                    tid, SyntheticStream::kHotBase + off, true);
            }
            const std::uint64_t cold_limit = cold_prewarm_bytes(a);
            for (std::uint64_t off = base;
                 off < std::min(base + chunk, cold_limit);
                 off += line) {
                hierarchy_->prewarmLine(
                    tid, SyntheticStream::kColdBase + off, false);
            }
        }
    }
}

void
SmtSystem::stepCycle()
{
    ++now_;
    events_.runUntil(now_);
    dram_->tick(now_);
    hierarchy_->tick(now_);
    core_->cycle(now_);
}

std::uint64_t
SmtSystem::skipToNextEvent(Cycle clamp)
{
    // Core first, with early-outs: in an active compute phase the
    // core answers now_ + 1 almost immediately and the (costlier)
    // DRAM scan never runs, so event-driven mode adds near-zero
    // overhead exactly where it cannot win anything.
    Cycle next = core_->nextEventAt(now_);
    if (next > now_ + 1 && hierarchy_->pendingWritebacks() > 0)
        next = now_ + 1;  // writeback drain retries every cycle
    if (next > now_ + 1)
        next = std::min(next, events_.nextEventAt());
    if (next > now_ + 1)
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
    // side effects (the rotation counters and the core's gated blocked
    // probes) and land one cycle short so the event cycle itself is
    // stepped for real.
    const std::uint64_t skipped = next - now_ - 1;
    core_->skipCycles(skipped);
    now_ = next - 1;
    return skipped;
}

RunResult
SmtSystem::run(std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    const std::uint32_t n = config_.core.numThreads;

    auto all_committed = [this, n](std::uint64_t target,
                                   std::uint64_t grand_base,
                                   const std::vector<std::uint64_t>
                                       &base) {
        // Cheap necessary condition first: the grand total must reach
        // n*target before every thread possibly has, so most cycles
        // skip the per-thread scan entirely.
        if (core_->totalCommittedInsts() - grand_base <
            static_cast<std::uint64_t>(n) * target)
            return false;
        for (ThreadId t = 0; t < n; ++t) {
            if (core_->perf(t).committedInsts - base[t] < target)
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
    // instead of ticking them.  A tracer forces per-cycle stepping —
    // fetch-stall spans open on the tick *after* the gating state
    // arises, and skipping that tick would shift span timestamps.
    const bool event_driven =
        config_.kernel == KernelMode::EventDriven && !tracer_;
    // The watchdog's expiry cycle must be real-stepped so it fires on
    // exactly the same cycle as under the per-cycle kernel.
    const auto watchdog_clamp = [&watchdog] {
        return watchdog.bound() > 0
                   ? watchdog.lastProgressAt() + watchdog.bound() + 1
                   : kCycleNever;
    };

    // ---- Warm-up phase (caches, predictor, DRAM state) ----
    std::vector<std::uint64_t> zero(n, 0);
    std::uint64_t last_total = core_->totalCommittedInsts();
    while (!all_committed(warmup_insts, 0, zero)) {
        if (event_driven)
            skipToNextEvent(watchdog_clamp());
        stepCycle();
        const std::uint64_t total = core_->totalCommittedInsts();
        if (total != last_total) {
            last_total = total;
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Reset statistics at the measurement boundary ----
    hierarchy_->resetStats();
    dram_->resetStats(now_);
    core_->resetHighWater();
    lastEpochAt_ = now_;
    statsResetAt_ = now_;

    std::vector<std::uint64_t> base(n);
    std::uint64_t base_mispredicts = 0;
    std::uint64_t base_branches = 0;
    for (ThreadId t = 0; t < n; ++t) {
        base[t] = core_->perf(t).committedInsts;
        base_branches += core_->perf(t).branches;
        base_mispredicts += core_->perf(t).mispredicts;
    }
    const std::uint64_t grand_base = core_->totalCommittedInsts();
    const Cycle start = now_;
    const std::uint64_t int_issue_base = core_->intIssueActiveCycles();

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
            Cycle clamp = watchdog_clamp();
            if (config_.observe.epoch > 0) {
                clamp = std::min(clamp,
                                 lastEpochAt_ + config_.observe.epoch);
            }
            const std::uint64_t skipped = skipToNextEvent(clamp);
            if (skipped > 0 && dram_->busy()) {
                // Interval-weighted Figure 4/5 sampling: the DRAM
                // state is frozen across the skipped window, so the
                // per-cycle kernel would have recorded these exact
                // values once per skipped cycle.
                const size_t outstanding =
                    dram_->outstandingRequests();
                res.outstandingHist.sample(outstanding, skipped);
                if (outstanding >= 2) {
                    res.threadsHist.sample(
                        dram_->distinctThreadsOutstanding(), skipped);
                }
            }
        }
        stepCycle();

        // Observability epoch boundary (off unless epoch > 0).
        if (config_.observe.epoch > 0 &&
            now_ - lastEpochAt_ >= config_.observe.epoch) {
            lastEpochAt_ = now_;
            sampleEpoch();
        }

        // Figures 4 and 5: sample while the DRAM system is busy.
        if (dram_->busy()) {
            const size_t outstanding = dram_->outstandingRequests();
            res.outstandingHist.sample(outstanding);
            if (outstanding >= 2)
                res.threadsHist.sample(
                    dram_->distinctThreadsOutstanding());
        }

        // Per-thread finish times only move on a cycle where some
        // thread committed, i.e. when the grand total moved — exact,
        // since the counters are monotonic.  Most cycles take only
        // this one comparison.
        const std::uint64_t total = core_->totalCommittedInsts();
        if (total != last_total) {
            last_total = total;
            for (ThreadId t = 0; t < n; ++t) {
                if (finish[t] == 0 &&
                    core_->perf(t).committedInsts - base[t] >=
                        measure_insts)
                    finish[t] = now_;
            }
            watchdog.kick(now_);
        }
        watchdog.checkOrDie(now_, dump);
    }

    // ---- Collect results ----
    res.measuredCycles = now_ - start;
    std::uint64_t committed_total = 0;
    for (ThreadId t = 0; t < n; ++t) {
        if (finish[t] == 0)
            finish[t] = now_;
        res.committed[t] = core_->perf(t).committedInsts - base[t];
        committed_total += res.committed[t];
        res.ipc[t] = static_cast<double>(measure_insts) /
                     static_cast<double>(finish[t] - start);
    }

    res.dram = dram_->aggregateStats();
    dram_->syncPower(now_);
    res.power = dram_->aggregatePowerStats();
    res.hammer = dram_->aggregateHammerStats();
    const std::uint64_t row_total =
        res.dram.rowHits + res.dram.rowEmpty + res.dram.rowConflicts;
    res.rowMissRate = row_total ? res.dram.rowMissRate() : 0.0;
    res.memAccessPer100 =
        committed_total
            ? 100.0 * static_cast<double>(res.dram.reads) /
                  static_cast<double>(committed_total)
            : 0.0;
    res.intIssueActiveFrac =
        res.measuredCycles
            ? static_cast<double>(core_->intIssueActiveCycles() -
                                  int_issue_base) /
                  static_cast<double>(res.measuredCycles)
            : 0.0;

    std::uint64_t branches = 0, mispredicts = 0;
    for (ThreadId t = 0; t < n; ++t) {
        branches += core_->perf(t).branches;
        mispredicts += core_->perf(t).mispredicts;
    }
    branches -= base_branches;
    mispredicts -= base_mispredicts;
    res.branchMispredictRate =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;

    res.perThreadReads = dram_->perThreadReads();
    std::uint64_t reads_total = 0;
    for (auto v : res.perThreadReads)
        reads_total += v;
    if (reads_total > 0) {
        // Round to nearest: plain truncation systematically biases
        // every share low (four perfectly fair threads each report
        // 24% instead of 25%).
        for (auto v : res.perThreadReads)
            res.bandwidthShareHist.sample(
                (100 * v + reads_total / 2) / reads_total);
    }

    exportObservability();
    return res;
}

void
SmtSystem::dumpState(std::ostream &os) const
{
    os << "=== SmtSystem state dump (cycle " << now_ << ") ===\n";
    for (ThreadId t = 0; t < config_.core.numThreads; ++t) {
        os << "  thread " << t << ": committed="
           << core_->perf(t).committedInsts << "\n";
    }
    dram_->dumpState(os);
    os << "=== end SmtSystem state dump ===\n";
}

} // namespace smtdram
