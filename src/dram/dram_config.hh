/**
 * @file
 * Timing and organization parameters of the simulated DRAM system,
 * with presets matching Table 1 of the paper.
 */

#ifndef SMTDRAM_DRAM_DRAM_CONFIG_HH
#define SMTDRAM_DRAM_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace smtdram
{

/** Row-buffer management policy (Section 2, "page modes"). */
enum class PageMode : std::uint8_t {
    Open,  ///< keep the row open after a column access
    Close, ///< precharge immediately after a column access
};

/** DRAM address mapping scheme (Section 5.4). */
enum class MappingScheme : std::uint8_t {
    PageInterleave, ///< pages assigned to banks round-robin
    XorPermute,     ///< bank index XORed with low row bits [33, 8]
};

/** Granularity at which addresses interleave across channels. */
enum class ChannelInterleave : std::uint8_t {
    Line, ///< consecutive cache lines alternate channels (bandwidth)
    Page, ///< a whole DRAM page lives in one channel (locality)
};

/**
 * DRAM device/bus timing in processor cycles.
 *
 * Table 1: 15 ns row access, 15 ns column access, 15 ns precharge at
 * a 3 GHz core clock = 45 cycles each.
 */
struct DramTiming {
    Cycle rowAccess = 45;     ///< tRCD: activate to column command
    Cycle columnAccess = 45;  ///< CAS latency
    Cycle precharge = 45;     ///< tRP
    /** Fixed controller + interconnect overhead per direction. */
    Cycle controllerOverhead = 10;
    /**
     * tREFI: average interval between per-bank auto-refresh commands,
     * in core cycles.  0 disables refresh entirely (the paper's
     * model), keeping default results bit-identical.
     */
    Cycle refreshInterval = 0;
    /** tRFC: cycles a bank is unavailable while it refreshes. */
    Cycle refreshCycles = 0;
    /** Peak transfer rate of one physical channel, mega-transfers/s. */
    double megaTransfersPerSec = 400.0;  // 200 MHz DDR
    /** Bytes moved per transfer on one physical channel. */
    std::uint32_t transferBytes = 16;
    /** Core clock in MHz used to convert bus time to core cycles. */
    double cpuMhz = 3000.0;

    /**
     * Core cycles the data bus of a logical channel (ganging degree
     * @p gang) is occupied moving @p bytes.
     */
    Cycle
    transferCycles(std::uint32_t bytes, std::uint32_t gang) const
    {
        const double bytes_per_transfer =
            static_cast<double>(transferBytes) * gang;
        const double transfers = bytes / bytes_per_transfer;
        const double cycles_per_transfer = cpuMhz / megaTransfersPerSec;
        const double c = transfers * cycles_per_transfer;
        const auto whole = static_cast<Cycle>(c);
        return (c > whole) ? whole + 1 : whole;
    }

    bool operator==(const DramTiming &) const = default;
};

/**
 * Deterministic fault-injection knobs (all off by default).
 *
 * Faults model the stress conditions a real controller must survive:
 * data-bus stalls (e.g. signal-integrity retraining windows),
 * transient read errors that force a bounded retry-with-backoff of
 * the affected transaction, and command-path glitches that delay an
 * enqueue's eligibility.  Every draw flows from `seed` (per-channel
 * offset), so runs are reproducible.
 */
struct FaultConfig {
    bool enabled = false;
    std::uint64_t seed = 1;
    /** Per-cycle chance a data-bus stall window begins. */
    double busStallProbability = 0.0;
    /** Length of one bus-stall window, in core cycles. */
    Cycle busStallCycles = 0;
    /** Chance a completing read returns corrupt data and retries. */
    double readErrorProbability = 0.0;
    /** Retries before the controller gives up and delivers anyway. */
    std::uint32_t maxRetries = 8;
    /** Base backoff before a retry re-arms; doubles per attempt. */
    Cycle retryBackoff = 32;
    /** Chance an enqueued request's eligibility is delayed. */
    double enqueueDelayProbability = 0.0;
    /** Maximum eligibility delay drawn per faulted enqueue. */
    Cycle enqueueDelayMax = 0;

    /** True if any fault mechanism can actually fire. */
    bool
    active() const
    {
        return enabled &&
               ((busStallProbability > 0.0 && busStallCycles > 0) ||
                readErrorProbability > 0.0 ||
                (enqueueDelayProbability > 0.0 && enqueueDelayMax > 0));
    }

    bool operator==(const FaultConfig &) const = default;
};

/** DDR auto-refresh defaults: tREFI 7.8 us, tRFC 100 ns at 3 GHz. */
inline constexpr Cycle kDdrRefreshIntervalCycles = 23'400;
inline constexpr Cycle kDdrRefreshCyclesPerBank = 300;

/** Default per-channel patrol-scrub pacing (one burst per interval). */
inline constexpr Cycle kDefaultScrubIntervalCycles = 50'000;

/**
 * SECDED ECC modeling knobs (all inert unless `enabled`).
 *
 * The model abstracts the code itself and keeps what the paper's
 * methodology can see: check bits widen every burst by
 * `checkOverheadCycles` of data-bus time, a patrol scrubber injects
 * low-priority background reads that contend with demand traffic, and
 * completing reads probabilistically carry a single-bit (correctable,
 * fixed transparently) or multi-bit (detected-uncorrectable, delivered
 * poisoned) error.  Error draws flow from the same seeded per-channel
 * FaultInjector as the fault layer, so ECC runs are reproducible from
 * (faults.seed, channel) alone.
 */
struct EccConfig {
    bool enabled = false;
    /** Extra data-bus cycles per burst moving the check bits. */
    Cycle checkOverheadCycles = 4;
    /** Chance a completing read carries a single-bit error. */
    double correctableProbability = 0.0;
    /** Chance a completing read carries a multi-bit error.  Must not
     *  exceed correctableProbability: under SECDED's error model,
     *  multi-bit flips are strictly rarer than single-bit ones. */
    double uncorrectableProbability = 0.0;
    /** Cycles between patrol-scrub bursts on each channel. */
    Cycle scrubInterval = kDefaultScrubIntervalCycles;
    /** Scrub reads injected per burst (per channel). */
    std::uint32_t scrubBurst = 1;
    /** Rows per bank the patrol walks before wrapping; bounds the
     *  scrub address space, not correctness. */
    std::uint32_t scrubRegionRows = 512;

    /** True if error injection can actually fire. */
    bool
    injectsErrors() const
    {
        return enabled && (correctableProbability > 0.0 ||
                           uncorrectableProbability > 0.0);
    }

    bool operator==(const EccConfig &) const = default;
};

/**
 * Rowhammer disturbance-error modeling knobs (all inert unless
 * `enabled`).
 *
 * Repeatedly activating a DRAM row disturbs the charge of its
 * physically adjacent rows; past a part-specific activation count the
 * victims' cells flip.  The model counts ACTs per row inside the
 * refresh window (a refresh restores the charge and resets the
 * accumulated pressure) and, once a victim row's neighbor-activation
 * pressure passes `hammerThreshold`, samples bit flips per further
 * aggressor ACT.  Flips surface through the ECC path on the next read
 * of the victim row: one outstanding flip is SECDED-corrected (and
 * scrubbed by the correcting read), two or more are a detected
 * uncorrectable error; with ECC off the read is delivered silently
 * corrupt and only audited by a counter.
 *
 * `mitigation` opts in a Graphene-style aggressor tracker: a bounded
 * Misra-Gries frequent-item table per bank whose counters trigger
 * *preventive refresh* commands for the victim rows before the flip
 * threshold can be reached.  Preventive refreshes are first-class
 * maintenance commands: they queue at the controller, compete with
 * demand/scrub traffic under the configured scheduler, occupy the
 * bank for a full row cycle, and are metered by the power model.
 */
struct HammerConfig {
    bool enabled = false;
    /** Seed of the dedicated victim-flip sampling stream. */
    std::uint64_t seed = 7;
    /** Neighbor-activation pressure at which a victim starts
     *  flipping.  Scaled-down like tREFI: real parts need ~50-300K
     *  ACTs in 64 ms; reduced-budget sims use proportionally small
     *  thresholds. */
    std::uint64_t hammerThreshold = 4096;
    /** Chance one aggressor ACT past the threshold flips one more
     *  victim bit. */
    double flipProbability = 0.001;
    /** Rows on each side of an aggressor that feel its ACTs. */
    std::uint32_t blastRadius = 1;
    /** Opt-in Graphene-style preventive-refresh mitigation. */
    bool mitigation = false;
    /** Misra-Gries counter-table entries per bank. */
    std::uint32_t trackerCapacity = 16;
    /** Estimated ACT count at which a tracked aggressor's neighbors
     *  are preventively refreshed; must undercut hammerThreshold or
     *  the mitigation can never win the race. */
    std::uint64_t mitigationThreshold = 1024;

    /** True if the disturbance model observes activations. */
    bool
    active() const
    {
        return enabled;
    }

    /** True if preventive refreshes can be generated. */
    bool
    mitigates() const
    {
        return enabled && mitigation;
    }

    bool operator==(const HammerConfig &) const = default;
};

/**
 * DRAM power/energy modeling parameters.
 *
 * The electrical half — datasheet currents (mA) and the device supply
 * voltage — feeds the always-on energy accounting and never affects
 * timing, so it is inert with respect to the golden figures and the
 * configSignature() label leaves it out.  Defaults approximate a 256 Mb
 * DDR-400 x16 device (Micron-class datasheet values).
 *
 * The behavioral half — `enabled` plus the idle thresholds and exit
 * latencies — opts a per-rank low-power state machine in (active ->
 * precharge powerdown fast/slow exit -> self-refresh).  It DOES
 * change timing: waking a rank charges the state's exit latency to
 * the next command, powerdown entry closes open rows, and
 * self-refresh suppresses tREFI deadlines.  Off by default, so
 * default results stay bit-identical.
 */
struct PowerConfig {
    /** Opt-in low-power state machine (timing-relevant). */
    bool enabled = false;

    // --- electrical parameters (always metered, timing-neutral) ---
    double vdd = 2.6;    ///< device supply voltage, V
    double idd0 = 110.0; ///< ACT-PRE cycling current, mA
    double idd2n = 35.0; ///< precharge standby, mA
    double idd2p = 7.0;  ///< precharge powerdown slow exit, mA
    double idd3n = 45.0; ///< active standby, mA
    double idd3p = 20.0; ///< powerdown fast exit, mA
    double idd4r = 150.0; ///< read burst, mA
    double idd4w = 140.0; ///< write burst, mA
    double idd5 = 220.0; ///< refresh burst, mA
    double idd6 = 3.0;   ///< self-refresh, mA

    // --- state machine knobs (timing-relevant when enabled) ---
    /** Idle cycles before a rank enters fast-exit powerdown. */
    Cycle powerdownIdle = 96;
    /** Idle cycles before it drops to slow-exit powerdown. */
    Cycle slowExitIdle = 1024;
    /** Idle cycles before it enters self-refresh. */
    Cycle selfRefreshIdle = 8192;
    Cycle exitFast = 18;         ///< tXP at the core clock
    Cycle exitSlow = 60;         ///< tXPDLL at the core clock
    Cycle exitSelfRefresh = 540; ///< tXSNR at the core clock

    /** True when the low-power state machine can change timing. */
    bool
    active() const
    {
        return enabled;
    }

    bool operator==(const PowerConfig &) const = default;
};

/**
 * Full configuration of one DRAM memory system.
 *
 * Physical channels are grouped into logical channels of `gangDegree`
 * physical channels each ("xC-yG" in the paper, Section 5.3): the
 * ganged group moves one request with a proportionally wider bus, and
 * its lock-stepped chips expose a proportionally wider row.
 */
struct DramConfig {
    DramTiming timing;
    std::uint32_t physicalChannels = 2;
    std::uint32_t gangDegree = 1;
    /** Independent chip groups (SDRAM ranks / RDRAM devices). */
    std::uint32_t chipsPerChannel = 1;
    std::uint32_t banksPerChip = 4;
    /** Row-buffer bytes per bank on ONE physical channel. */
    std::uint32_t rowBytes = 4096;
    std::uint32_t lineBytes = 64;
    PageMode pageMode = PageMode::Open;
    MappingScheme mapping = MappingScheme::PageInterleave;
    ChannelInterleave channelInterleave = ChannelInterleave::Line;
    /** Per-logical-channel queue capacities. */
    std::uint32_t readQueueCap = 64;
    std::uint32_t writeQueueCap = 64;
    /** Start draining writes when the queue reaches this depth. */
    std::uint32_t writeHighWatermark = 16;
    /** Stop draining once it falls back to this depth. */
    std::uint32_t writeLowWatermark = 4;
    /** Fault-injection configuration (inert unless enabled). */
    FaultConfig faults;
    /** SECDED ECC configuration (inert unless enabled). */
    EccConfig ecc;
    /** Rowhammer disturbance model (inert unless enabled). */
    HammerConfig hammer;
    /** Power model (accounting always on; state machine opt-in). */
    PowerConfig power;
    /**
     * Shadow conservation checker: asserts every enqueued request
     * completes exactly once and none ages past checkerMaxAge.
     * Purely diagnostic — never changes timing.
     */
    bool checkerEnabled = false;
    /** Queue-age bound (cycles) before the checker declares livelock;
     *  0 disables the age check but keeps conservation checking. */
    Cycle checkerMaxAge = 2'000'000;

    std::uint32_t
    logicalChannels() const
    {
        return physicalChannels / gangDegree;
    }

    std::uint32_t
    banksPerChannel() const
    {
        return chipsPerChannel * banksPerChip;
    }

    /** Combined row width of a ganged (lock-stepped) group. */
    std::uint32_t
    effectiveRowBytes() const
    {
        return rowBytes * gangDegree;
    }

    Cycle
    lineTransferCycles() const
    {
        return timing.transferCycles(lineBytes, gangDegree);
    }

    /**
     * Data-bus occupancy of one burst including the SECDED check
     * bits; equals lineTransferCycles() when ECC is off, keeping
     * default timing bit-identical.
     */
    Cycle
    burstCycles() const
    {
        return lineTransferCycles() +
               (ecc.enabled ? ecc.checkOverheadCycles : 0);
    }

    /** Line-sized columns in one (ganged) row. */
    std::uint32_t
    columnsPerRow() const
    {
        return effectiveRowBytes() / lineBytes;
    }

    /** True if auto-refresh is modeled. */
    bool
    refreshEnabled() const
    {
        return timing.refreshInterval > 0;
    }

    /** Enable DDR-typical auto-refresh timing (chainable). */
    DramConfig &
    withRefresh(Cycle interval = kDdrRefreshIntervalCycles,
                Cycle duration = kDdrRefreshCyclesPerBank)
    {
        timing.refreshInterval = interval;
        timing.refreshCycles = duration;
        return *this;
    }

    /** Enable SECDED ECC with patrol scrubbing (chainable). */
    DramConfig &
    withEcc(double correctable_prob = 0.0,
            double uncorrectable_prob = 0.0,
            Cycle scrub_interval = kDefaultScrubIntervalCycles)
    {
        ecc.enabled = true;
        ecc.correctableProbability = correctable_prob;
        ecc.uncorrectableProbability = uncorrectable_prob;
        ecc.scrubInterval = scrub_interval;
        return *this;
    }

    /** Enable the rowhammer disturbance model (chainable). */
    DramConfig &
    withHammer(std::uint64_t threshold = 4096,
               double flip_probability = 0.001,
               std::uint32_t blast_radius = 1)
    {
        hammer.enabled = true;
        hammer.hammerThreshold = threshold;
        hammer.flipProbability = flip_probability;
        hammer.blastRadius = blast_radius;
        return *this;
    }

    /** Enable Graphene-style preventive refresh (chainable; requires
     *  withHammer(), enforced by validate()). */
    DramConfig &
    withHammerMitigation(std::uint32_t tracker_capacity = 16,
                         std::uint64_t mitigation_threshold = 1024)
    {
        hammer.mitigation = true;
        hammer.trackerCapacity = tracker_capacity;
        hammer.mitigationThreshold = mitigation_threshold;
        return *this;
    }

    /** Enable the low-power state machine (chainable). */
    DramConfig &
    withPowerManagement(Cycle powerdown_idle = 96,
                        Cycle slow_exit_idle = 1024,
                        Cycle self_refresh_idle = 8192)
    {
        power.enabled = true;
        power.powerdownIdle = powerdown_idle;
        power.slowExitIdle = slow_exit_idle;
        power.selfRefreshIdle = self_refresh_idle;
        return *this;
    }

    /** fatal()s if the parameters are inconsistent. */
    void validate() const;

    /** "xC-yG" label used in the paper's Figure 7. */
    std::string label() const;

    /**
     * Multi-channel DDR SDRAM per Table 1: 200 MHz DDR, 16 B wide
     * channels, 4 banks per chip group, one chip group per channel.
     */
    static DramConfig ddrSdram(std::uint32_t physical_channels,
                               std::uint32_t gang_degree = 1);

    /**
     * Direct Rambus DRAM (Section 5.4): 800 MT/s, 2 B wide channel,
     * 32 banks per chip, several chips per channel.
     */
    static DramConfig directRambus(std::uint32_t physical_channels,
                                   std::uint32_t chips_per_channel = 4);

    bool operator==(const DramConfig &) const = default;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_DRAM_CONFIG_HH
