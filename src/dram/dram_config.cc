#include "dram/dram_config.hh"

#include <cstdio>

#include "common/logging.hh"

namespace smtdram
{

void
DramConfig::validate() const
{
    fatal_if(physicalChannels == 0, "need at least one memory channel");
    fatal_if(gangDegree == 0 || physicalChannels % gangDegree != 0,
             "gang degree %u does not divide %u physical channels",
             gangDegree, physicalChannels);
    fatal_if(!isPowerOfTwo(lineBytes), "line size must be a power of 2");
    fatal_if(!isPowerOfTwo(rowBytes) || rowBytes < lineBytes,
             "row size must be a power of 2 and >= line size");
    fatal_if(!isPowerOfTwo(banksPerChannel()),
             "banks per channel must be a power of 2 (got %u)",
             banksPerChannel());
    fatal_if(effectiveRowBytes() / lineBytes == 0,
             "row holds no full line");
    fatal_if(gangDegree * timing.transferBytes > lineBytes,
             "ganging %u channels moves more than one line per "
             "transfer; the paper stops at line-width ganging",
             gangDegree);
    fatal_if(writeLowWatermark > writeHighWatermark,
             "write drain watermarks inverted");
    fatal_if(timing.refreshInterval == 0 && timing.refreshCycles > 0,
             "refresh duration set but refresh interval is 0");
    fatal_if(timing.refreshInterval > 0 &&
                 timing.refreshCycles == 0,
             "refresh interval set but refresh takes no time");
    fatal_if(timing.refreshInterval > 0 &&
                 timing.refreshCycles >= timing.refreshInterval,
             "refresh of %llu cycles consumes the whole %llu-cycle "
             "interval; the bank could never serve data",
             (unsigned long long)timing.refreshCycles,
             (unsigned long long)timing.refreshInterval);
    fatal_if(faults.enabled &&
                 (faults.busStallProbability < 0.0 ||
                  faults.busStallProbability > 1.0 ||
                  faults.readErrorProbability < 0.0 ||
                  faults.readErrorProbability > 1.0 ||
                  faults.enqueueDelayProbability < 0.0 ||
                  faults.enqueueDelayProbability > 1.0),
             "fault probabilities must lie in [0, 1]");
    if (ecc.enabled) {
        fatal_if(ecc.scrubInterval == 0,
                 "ECC is enabled but the patrol-scrub interval is 0; "
                 "scrubbing is what bounds latent-error accumulation");
        fatal_if(ecc.scrubBurst == 0,
                 "ECC patrol scrub would never inject a read "
                 "(scrubBurst is 0)");
        fatal_if(ecc.scrubRegionRows == 0,
                 "ECC patrol scrub region holds no rows");
        fatal_if(ecc.correctableProbability < 0.0 ||
                     ecc.correctableProbability > 1.0 ||
                     ecc.uncorrectableProbability < 0.0 ||
                     ecc.uncorrectableProbability > 1.0,
                 "ECC error probabilities must lie in [0, 1]");
        fatal_if(ecc.correctableProbability +
                         ecc.uncorrectableProbability >
                     1.0,
                 "ECC error probabilities sum past 1");
        fatal_if(ecc.uncorrectableProbability >
                     ecc.correctableProbability,
                 "uncorrectable probability %g exceeds the correctable "
                 "ceiling %g; SECDED multi-bit errors are strictly "
                 "rarer than single-bit ones",
                 ecc.uncorrectableProbability,
                 ecc.correctableProbability);
        fatal_if(ecc.checkOverheadCycles > lineTransferCycles(),
                 "ECC check-bit overhead of %llu cycles exceeds the "
                 "%llu-cycle data burst itself; SECDED adds 8 check "
                 "bits per 64 data bits, not more than the data",
                 (unsigned long long)ecc.checkOverheadCycles,
                 (unsigned long long)lineTransferCycles());
    }
    fatal_if(hammer.mitigation && !hammer.enabled,
             "hammer mitigation requested without the disturbance "
             "model; enable hammer so there is something to prevent");
    if (hammer.enabled) {
        fatal_if(hammer.hammerThreshold == 0,
                 "a hammer threshold of 0 flips victims on the first "
                 "activation; every row would be broken");
        fatal_if(hammer.flipProbability < 0.0 ||
                     hammer.flipProbability > 1.0,
                 "hammer flip probability must lie in [0, 1]");
        fatal_if(hammer.blastRadius == 0,
                 "a blast radius of 0 disturbs no neighbors; disable "
                 "the hammer model instead");
    }
    if (hammer.mitigates()) {
        fatal_if(hammer.trackerCapacity == 0,
                 "aggressor tracker holds no counters; mitigation "
                 "could never fire");
        fatal_if(hammer.mitigationThreshold == 0,
                 "a mitigation threshold of 0 refreshes neighbors on "
                 "every activation");
        fatal_if(hammer.mitigationThreshold >= hammer.hammerThreshold,
                 "mitigation threshold %llu does not undercut the "
                 "hammer threshold %llu; preventive refresh would "
                 "always lose the race to the first flip",
                 (unsigned long long)hammer.mitigationThreshold,
                 (unsigned long long)hammer.hammerThreshold);
    }
    // Electrical parameters feed the always-on accounting, so they
    // are checked whether or not the state machine is enabled.
    fatal_if(power.vdd <= 0.0, "DRAM supply voltage must be positive");
    fatal_if(power.idd0 < 0.0 || power.idd2n < 0.0 ||
                 power.idd2p < 0.0 || power.idd3n < 0.0 ||
                 power.idd3p < 0.0 || power.idd4r < 0.0 ||
                 power.idd4w < 0.0 || power.idd5 < 0.0 ||
                 power.idd6 < 0.0,
             "IDD currents cannot be negative");
    fatal_if(power.idd0 < power.idd3n,
             "IDD0 (%g mA) below IDD3N (%g mA): an ACT-PRE cycle "
             "cannot draw less than active standby",
             power.idd0, power.idd3n);
    fatal_if(power.idd4r < power.idd3n || power.idd4w < power.idd3n,
             "burst currents below active standby (IDD4R %g / IDD4W "
             "%g vs IDD3N %g mA)",
             power.idd4r, power.idd4w, power.idd3n);
    fatal_if(power.idd5 < power.idd3n,
             "IDD5 (%g mA) below IDD3N (%g mA): a refresh burst "
             "cannot draw less than active standby",
             power.idd5, power.idd3n);
    fatal_if(power.idd2p > power.idd2n || power.idd3p > power.idd3n,
             "powerdown currents exceed their standby counterparts; "
             "powering down would cost energy");
    fatal_if(power.idd6 > power.idd2p,
             "self-refresh current IDD6 (%g mA) exceeds slow-exit "
             "powerdown IDD2P (%g mA); the deepest state must draw "
             "the least",
             power.idd6, power.idd2p);
    if (power.enabled) {
        fatal_if(power.powerdownIdle == 0,
                 "powerdown idle threshold of 0 would power a rank "
                 "down in the middle of back-to-back accesses");
        fatal_if(power.powerdownIdle >= power.slowExitIdle ||
                     power.slowExitIdle >= power.selfRefreshIdle,
                 "low-power idle thresholds must strictly deepen: "
                 "powerdown %llu < slow-exit %llu < self-refresh %llu",
                 (unsigned long long)power.powerdownIdle,
                 (unsigned long long)power.slowExitIdle,
                 (unsigned long long)power.selfRefreshIdle);
        fatal_if(power.exitFast == 0 || power.exitSlow == 0 ||
                     power.exitSelfRefresh == 0,
                 "low-power exit latencies cannot be 0; a free exit "
                 "makes the state machine a pure win and the "
                 "comparison meaningless");
        fatal_if(power.exitFast > power.exitSlow ||
                     power.exitSlow > power.exitSelfRefresh,
                 "exit latencies must deepen with the state: fast "
                 "%llu <= slow %llu <= self-refresh %llu",
                 (unsigned long long)power.exitFast,
                 (unsigned long long)power.exitSlow,
                 (unsigned long long)power.exitSelfRefresh);
    }
}

std::string
DramConfig::label() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%uC-%uG", physicalChannels,
                  gangDegree);
    return buf;
}

DramConfig
DramConfig::ddrSdram(std::uint32_t physical_channels,
                     std::uint32_t gang_degree)
{
    DramConfig c;
    c.physicalChannels = physical_channels;
    c.gangDegree = gang_degree;
    c.chipsPerChannel = 1;
    c.banksPerChip = 4;
    c.rowBytes = 4096;
    c.timing.megaTransfersPerSec = 400.0;  // 200 MHz double data rate
    c.timing.transferBytes = 16;
    c.validate();
    return c;
}

DramConfig
DramConfig::directRambus(std::uint32_t physical_channels,
                         std::uint32_t chips_per_channel)
{
    DramConfig c;
    c.physicalChannels = physical_channels;
    c.gangDegree = 1;
    c.chipsPerChannel = chips_per_channel;
    c.banksPerChip = 32;
    c.rowBytes = 2048;
    c.timing.megaTransfersPerSec = 800.0;  // 400 MHz double data rate
    c.timing.transferBytes = 2;
    c.validate();
    return c;
}

} // namespace smtdram
