#include "sim/experiment.hh"

#include <cstdarg>

#include "common/logging.hh"
#include "workload/hammer_workload.hh"

namespace smtdram
{

namespace
{

/** printf onto the end of @p out; unlike a fixed buffer it never
 *  truncates. */
__attribute__((format(printf, 2, 3))) void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    out += vformat(fmt, args);
    va_end(args);
}

} // namespace

RunResult
runSystem(const SystemConfig &config,
          const std::vector<AppProfile> &apps, std::uint64_t seed,
          std::uint64_t measure_insts, std::uint64_t warmup_insts)
{
    SmtSystem system(config, apps, seed);
    return system.run(measure_insts, warmup_insts);
}

std::vector<AppProfile>
profilesForMix(const WorkloadMix &mix)
{
    std::vector<AppProfile> apps;
    apps.reserve(mix.apps.size());
    for (const std::string &name : mix.apps) {
        // Hostile mixes (hostileMix()) splice adversarial hammer
        // threads in alongside the SPEC names.
        if (isHammerProfileName(name))
            apps.push_back(hammerProfile(name));
        else
            apps.push_back(specProfile(name));
    }
    return apps;
}

std::string
configSignature(const SystemConfig &config)
{
    // Built as a growing std::string: a fixed snprintf buffer would
    // silently truncate once enough fields accrue.
    const DramConfig &d = config.dram;
    std::string sig = d.label();
    sig += d.mapping == MappingScheme::XorPermute ? "-xor" : "-page";
    sig += d.pageMode == PageMode::Open ? "-open" : "-close";
    sig += "-";
    sig += schedulerName(config.scheduler);
    sig += config.hierarchy.l3.infinite ? "-l3inf" : "-l3real";
    sig += "-pf" + std::to_string(
                       (config.hierarchy.prefetchNextLine ? 1 : 0) +
                       (d.channelInterleave == ChannelInterleave::Page
                            ? 2
                            : 0));
    if (d.refreshEnabled()) {
        sig += "-ref" + std::to_string(d.timing.refreshInterval) +
               "x" + std::to_string(d.timing.refreshCycles);
    }
    if (d.ecc.enabled) {
        // ECC changes burst timing and adds scrub traffic.
        appendf(sig, "-ecc%llu,%g,%g,%llu,%u,%u",
                (unsigned long long)d.ecc.checkOverheadCycles,
                d.ecc.correctableProbability,
                d.ecc.uncorrectableProbability,
                (unsigned long long)d.ecc.scrubInterval, d.ecc.scrubBurst,
                d.ecc.scrubRegionRows);
    }
    if (d.power.active()) {
        // Only the state machine changes timing; the electrical
        // currents are metering-only and left out of the label.
        appendf(sig, "-pwr%llu,%llu,%llu,%llu,%llu,%llu",
                (unsigned long long)d.power.powerdownIdle,
                (unsigned long long)d.power.slowExitIdle,
                (unsigned long long)d.power.selfRefreshIdle,
                (unsigned long long)d.power.exitFast,
                (unsigned long long)d.power.exitSlow,
                (unsigned long long)d.power.exitSelfRefresh);
    }
    if (d.faults.active()) {
        // Fault-injection outcomes depend on every knob and on the
        // seed; spell them all out.
        appendf(sig, "-flt%g,%llu,%g,%u,%llu,%g,%llu,s%llu",
                d.faults.busStallProbability,
                (unsigned long long)d.faults.busStallCycles,
                d.faults.readErrorProbability, d.faults.maxRetries,
                (unsigned long long)d.faults.retryBackoff,
                d.faults.enqueueDelayProbability,
                (unsigned long long)d.faults.enqueueDelayMax,
                (unsigned long long)d.faults.seed);
    }
    if (d.hammer.active()) {
        // The disturbance model changes victim-read outcomes and (with
        // mitigation) injects preventive-refresh traffic; every knob
        // and the dedicated seed are timing- or outcome-relevant.
        appendf(sig, "-ham%llu,%g,%u,s%llu",
                (unsigned long long)d.hammer.hammerThreshold,
                d.hammer.flipProbability, d.hammer.blastRadius,
                (unsigned long long)d.hammer.seed);
        if (d.hammer.mitigates()) {
            appendf(sig, "-mit%u,%llu", d.hammer.trackerCapacity,
                    (unsigned long long)d.hammer.mitigationThreshold);
        }
    }
    const TopologyConfig &t = config.topology;
    if (t.nontrivial()) {
        // Only a *nontrivial* topology gets a suffix: a disabled or
        // enabled 1x1 topology builds the same machine, so it prints
        // the same label.
        appendf(sig, "-numa%ux%uw%u-%s-%s-hop%lluq%llu", t.sockets,
                t.coresPerSocket, t.smtWays,
                placementPolicyName(t.placement), homePolicyName(t.home),
                (unsigned long long)t.hopLatency,
                (unsigned long long)t.linkOccupancy);
        if (t.placement == PlacementPolicy::Migrate &&
            t.migrationEpoch > 0) {
            appendf(sig, "-mig%lluc%llu",
                    (unsigned long long)t.migrationEpoch,
                    (unsigned long long)t.migrationCost);
        }
    }
    return sig;
}

} // namespace smtdram
