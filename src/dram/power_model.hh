/**
 * @file
 * DRAM power of one logical channel: a Micron/DRAMPower-style
 * current-based energy meter, always on, and a per-rank low-power
 * state machine, opt-in, over one per-rank clock.
 *
 * Every command the controller already issues — precharge, activate,
 * read/write burst, refresh, patrol scrub — is metered from datasheet
 * currents (IDDx) and the device supply voltage, and background energy
 * accrues per rank per power state.  The math is the standard
 * datasheet decomposition:
 *
 *     E_cycle(I)  = VDD * I / f_core                      [nJ/cycle]
 *     E_act       = (IDD0  - IDD3N) * VDD/f * tRCD        per ACT
 *     E_pre       = (IDD0  - IDD2N) * VDD/f * tRP         per PRE
 *     E_rd        = (IDD4R - IDD3N) * VDD/f * tBurst      per read
 *     E_wr        = (IDD4W - IDD3N) * VDD/f * tBurst      per write
 *     E_ref       = (IDD5  - IDD3N) * VDD/f * tRFC        per refresh
 *     E_bg(state) = E_cycle(IDD_state) per rank-cycle
 *
 * Metering is strictly timing-neutral: it is pure arithmetic on
 * events that already happen, so it can never change a simulated
 * cycle (the golden figures pin this).  Every component add is
 * mirrored into a running total, which is what the
 * energy-conservation property test checks.
 *
 * With `PowerConfig::enabled` set, each rank also walks
 *
 *     Active -> precharge powerdown (fast exit)
 *            -> precharge powerdown (slow exit)
 *            -> self-refresh
 *
 * as its idle time crosses the configured entry thresholds, and pays
 * the state's exit latency on the next command that targets it.  The
 * machine is evaluated *lazily*: a rank's state at cycle `t` is a pure
 * function of the cycle its last command finished (`busyUntil`) and
 * the thresholds, so no per-cycle work is needed and the DRAM-system
 * idle fast-path stays intact.  Transitions are materialized —
 * residency and background energy accounted, trace spans emitted,
 * entry precharges metered, exit penalty charged — only when a
 * command next touches the rank (an access, a refresh).  Stats
 * readers see a synced copy (syncedTo()), never the live meter.
 * With the machine off a rank never leaves Active and never charges a
 * penalty; its busyUntil still anchors the background accounting.
 */

#ifndef SMTDRAM_DRAM_POWER_MODEL_HH
#define SMTDRAM_DRAM_POWER_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_config.hh"

namespace smtdram
{

class Tracer;

/** Power state of one DRAM rank. */
enum class PowerState : std::uint8_t {
    Active,        ///< standby (clock enabled), ready for commands
    PowerdownFast, ///< precharge powerdown, fast (DLL-on) exit
    PowerdownSlow, ///< precharge powerdown, slow (DLL-off) exit
    SelfRefresh,   ///< self-refresh: lowest power, refreshes itself
};

/** What a wake-up materialized (returned to the controller). */
struct WakeResult {
    /** Exit latency charged to the waking command, cycles. */
    Cycle penalty = 0;
    /** Deepest state the rank had reached before this wake. */
    PowerState from = PowerState::Active;
};

/** Aggregated energy/power statistics of one logical channel. */
struct PowerStats {
    // --- energy breakdown, nanojoules ---
    double backgroundEnergy = 0.0; ///< standby/powerdown/self-refresh
    double activateEnergy = 0.0;   ///< demand ACT + PRE command energy
    double readEnergy = 0.0;       ///< demand read bursts
    double writeEnergy = 0.0;      ///< write bursts
    double refreshEnergy = 0.0;    ///< auto-refresh commands
    double scrubEnergy = 0.0;      ///< patrol-scrub ACT/PRE/bursts
    /** Rowhammer preventive refreshes (ACT+PRE per command). */
    double mitigationEnergy = 0.0;
    /** Running total, incremented in lockstep with every component
     *  add; the conservation property test asserts it equals the
     *  component sum. */
    double totalEnergy = 0.0;

    // --- low-power state machine counters ---
    /** Low-power episodes (each ends in a wake, its exit). */
    std::uint64_t powerdownEntries = 0;
    /** Episodes that reached self-refresh. */
    std::uint64_t selfRefreshEntries = 0;
    /** Exit-latency cycles charged to waking commands. */
    std::uint64_t exitPenaltyCycles = 0;
    /** tREFI deadlines absorbed because the rank was in self-refresh. */
    std::uint64_t refreshesSuppressed = 0;

    // --- state residency, rank-cycles ---
    std::uint64_t activeCycles = 0;
    std::uint64_t powerdownFastCycles = 0;
    std::uint64_t powerdownSlowCycles = 0;
    std::uint64_t selfRefreshCycles = 0;

    /** Length of each completed low-power episode, cycles. */
    LogHistogram lowPowerSpanHist;

    /** Accumulate @p other (another channel's stats). */
    void
    merge(const PowerStats &other)
    {
        backgroundEnergy += other.backgroundEnergy;
        activateEnergy += other.activateEnergy;
        readEnergy += other.readEnergy;
        writeEnergy += other.writeEnergy;
        refreshEnergy += other.refreshEnergy;
        scrubEnergy += other.scrubEnergy;
        mitigationEnergy += other.mitigationEnergy;
        totalEnergy += other.totalEnergy;
        powerdownEntries += other.powerdownEntries;
        selfRefreshEntries += other.selfRefreshEntries;
        exitPenaltyCycles += other.exitPenaltyCycles;
        refreshesSuppressed += other.refreshesSuppressed;
        activeCycles += other.activeCycles;
        powerdownFastCycles += other.powerdownFastCycles;
        powerdownSlowCycles += other.powerdownSlowCycles;
        selfRefreshCycles += other.selfRefreshCycles;
        lowPowerSpanHist.merge(other.lowPowerSpanHist);
    }

    bool operator==(const PowerStats &) const = default;

    /** Component sum (cross-check against totalEnergy). */
    double
    componentEnergy() const
    {
        return backgroundEnergy + activateEnergy + readEnergy +
               writeEnergy + refreshEnergy + scrubEnergy +
               mitigationEnergy;
    }

    /** Average power over @p cycles core cycles at @p cpu_mhz, mW. */
    double
    averagePowerMw(double cpu_mhz, Cycle cycles) const
    {
        return cycles ? totalEnergy * cpu_mhz /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * The power of one logical channel: precomputed per-command energies,
 * per-rank attribution, and each rank's lazy low-power state.
 */
class PowerModel
{
  public:
    explicit PowerModel(const DramConfig &config,
                        std::uint32_t channel = 0);

    /** nJ one core cycle at @p idd_ma milliamps costs. */
    double energyPerCycleNj(double idd_ma) const;

    /** True when the opt-in low-power machine is on. */
    bool machineActive() const { return machine_; }

    std::uint32_t
    ranks() const
    {
        return static_cast<std::uint32_t>(ranks_.size());
    }

    std::uint32_t rankOf(std::uint32_t bank) const
    {
        return bank / banksPerChip_;
    }

    /** Rank state at cycle @p now (lazy; Active when machine off). */
    PowerState stateAt(std::uint32_t rank, Cycle now) const;

    /**
     * Meter one bank access: ACT/PRE command energy by row outcome
     * plus the burst.  Scrub reads attribute everything to the scrub
     * component so demand energy keeps its meaning.  The rank works
     * until @p busy_until.
     */
    void meterAccess(std::uint32_t rank, bool is_write, bool scrub,
                     bool row_hit, bool bank_was_idle, Cycle busy_until);

    /** Meter one per-bank auto-refresh command that keeps @p rank
     *  busy until @p busy_until. */
    void meterRefresh(std::uint32_t rank, Cycle busy_until);

    /** Meter one rowhammer preventive refresh: an ACT+PRE row cycle
     *  on the victim row, no data burst, that keeps @p rank busy until
     *  @p busy_until. */
    void meterPreventiveRefresh(std::uint32_t rank, Cycle busy_until);

    /**
     * Wake @p rank at @p now for a command: account residency and
     * background energy through @p now and return the exit penalty
     * plus the state left behind.  Leaving a low-power state also
     * records the episode, emits its spans and exit instant to
     * @p tracer, and meters the precharges that precharge-powerdown
     * entry issued to the rank's @p open_rows open rows; the caller
     * closes those rows when `from != Active`.
     */
    WakeResult wake(std::uint32_t rank, Cycle now,
                    std::uint32_t open_rows, Tracer *tracer);

    /** Record one refresh deadline absorbed by self-refresh. */
    void noteRefreshSuppressed() { ++stats_.refreshesSuppressed; }

    /**
     * Bring every rank's residency/background accounting current to
     * @p now without materializing transitions (no spans, no row
     * closures).  Splitting an idle window across sync points accounts
     * the same residency cycles, but its background energy is then
     * summed in pieces, which is not ULP-identical; readers therefore
     * take syncedTo() and leave the live meter alone.
     */
    void sync(Cycle now);

    /** A copy of this meter synced to @p now: what a reader sees at
     *  @p now, without moving the meter itself. */
    PowerModel
    syncedTo(Cycle now) const
    {
        PowerModel copy = *this;
        copy.sync(now);
        return copy;
    }

    /** Stats boundary: zero all accumulators and re-anchor the
     *  background accounting at @p now. */
    void reset(Cycle now);

    const PowerStats &stats() const { return stats_; }

    /** Total energy attributed to one rank, nJ. */
    double rankEnergy(std::uint32_t rank) const
    {
        return ranks_[rank].energy;
    }

    Cycle busyUntil(std::uint32_t rank) const
    {
        return ranks_[rank].busyUntil;
    }

  private:
    struct Rank {
        /** Cycle the rank's last command finishes; idling starts here. */
        Cycle busyUntil = 0;
        /** Residency/background accounted through this cycle. */
        Cycle accountedUntil = 0;
        /** Energy attributed to this rank, nJ. */
        double energy = 0.0;
    };

    void
    add(double &component, double nj, std::uint32_t rank)
    {
        component += nj;
        stats_.totalEnergy += nj;
        ranks_[rank].energy += nj;
    }

    void
    noteBusyUntil(std::uint32_t rank, Cycle until)
    {
        Rank &r = ranks_[rank];
        if (until > r.busyUntil)
            r.busyUntil = until;
    }

    /** Account [accountedUntil, upTo) across the states crossed. */
    void accountTo(std::uint32_t rank, Cycle upTo);

    /** Meter @p cycles rank-cycles of background in state @p s. */
    void meterBackground(std::uint32_t rank, PowerState s, Cycle cycles);

    PowerStats stats_;
    std::vector<Rank> ranks_;
    std::uint32_t banksPerChip_;
    std::uint32_t channel_;

    /** VDD / f_core: nJ one core cycle of 1 mA costs. */
    double vddOverMhz_;

    // Precomputed per-command energies, nJ.
    double actNj_;
    double preNj_;
    double readBurstNj_;
    double writeBurstNj_;
    double refreshNj_;
    // Background energy per rank-cycle by state, nJ.
    double bgActiveNj_;
    double bgPowerdownFastNj_;
    double bgPowerdownSlowNj_;
    double bgSelfRefreshNj_;

    // The low-power machine: on/off, idle entry thresholds and exit
    // latencies, cycles.
    bool machine_;
    Cycle pdIdle_;
    Cycle slowIdle_;
    Cycle srIdle_;
    Cycle exitFast_;
    Cycle exitSlow_;
    Cycle exitSelfRefresh_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_POWER_MODEL_HH
