/**
 * @file
 * Seeded per-channel fault injector for the DRAM subsystem.
 *
 * The injector owns every random draw behind the three fault
 * mechanisms of FaultConfig — data-bus stall windows, transient read
 * errors, and enqueue-eligibility delays — and behind EccConfig's
 * single-/multi-bit read errors, so the controller's own timing model
 * stays deterministic and fault/ECC runs are reproducible from
 * (config seed, channel index) alone.  With faults and ECC disabled
 * `active()`/`eccActive()` are false and the controller takes no
 * fault path at all, keeping default results bit-identical.
 */

#ifndef SMTDRAM_DRAM_FAULT_INJECTOR_HH
#define SMTDRAM_DRAM_FAULT_INJECTOR_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"
#include "dram/dram_config.hh"

namespace smtdram
{

/** Per-channel statistics of the faults actually injected. */
struct FaultStats {
    std::uint64_t busStalls = 0;        ///< stall windows opened
    std::uint64_t busStallCycles = 0;   ///< cycles of stall injected
    std::uint64_t readErrors = 0;       ///< reads that came back bad
    std::uint64_t enqueueDelays = 0;    ///< enqueues made ineligible
    std::uint64_t enqueueDelayCycles = 0;
    std::uint64_t eccSingleBit = 0;     ///< single-bit flips injected
    std::uint64_t eccMultiBit = 0;      ///< multi-bit flips injected

    /** Accumulate @p other (another channel's stats). */
    void
    merge(const FaultStats &other)
    {
        busStalls += other.busStalls;
        busStallCycles += other.busStallCycles;
        readErrors += other.readErrors;
        enqueueDelays += other.enqueueDelays;
        enqueueDelayCycles += other.enqueueDelayCycles;
        eccSingleBit += other.eccSingleBit;
        eccMultiBit += other.eccMultiBit;
    }
};

/** What SECDED sees on one completing read. */
enum class EccOutcome : std::uint8_t {
    Clean,         ///< no error
    Corrected,     ///< single-bit error, fixed transparently
    Uncorrectable, ///< multi-bit error, detected but not fixable
};

/** One channel's source of injected faults and ECC errors. */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, const EccConfig &ecc,
                  std::uint32_t channel);

    bool active() const { return active_; }

    /** True if ECC error injection can fire. */
    bool eccActive() const { return eccActive_; }

    /**
     * Called once per controller tick.  Returns the number of cycles
     * the data bus must additionally stall starting at @p now, or 0.
     * At most one stall window is open at a time.
     */
    Cycle sampleBusStall(Cycle now);

    /** True if the read completing now returned corrupt data. */
    bool sampleReadError();

    /** Extra cycles before a newly enqueued request is eligible. */
    Cycle sampleEnqueueDelay();

    /**
     * What SECDED detects on the read completing now.  Drawn from a
     * dedicated stream so enabling bus/retry faults never perturbs
     * the ECC error pattern of a given seed (and vice versa).
     */
    EccOutcome sampleEccRead();

    const FaultStats &stats() const { return stats_; }
    void resetStats() { stats_ = FaultStats(); }

  private:
    FaultConfig config_;
    EccConfig ecc_;
    Rng rng_;
    Rng eccRng_;
    bool active_;
    bool eccActive_;
    /** End of the currently open stall window (no overlap). */
    Cycle stallOverAt_ = 0;
    FaultStats stats_;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_FAULT_INJECTOR_HH
