#include "dram/fault_injector.hh"

namespace smtdram
{

FaultInjector::FaultInjector(const FaultConfig &config,
                             const EccConfig &ecc, std::uint32_t channel)
    : config_(config),
      ecc_(ecc),
      // Channel-distinct seeding so ganged sweeps don't see the same
      // fault pattern on every channel.  The ECC stream mixes a
      // different constant so the two mechanisms stay independent
      // even though they share faults.seed.
      rng_(config.seed + 0x5bd1'e995ULL * (channel + 1)),
      eccRng_(config.seed + 0x9e37'79b9ULL * (channel + 1)),
      active_(config.active()),
      eccActive_(ecc.injectsErrors())
{
}

Cycle
FaultInjector::sampleBusStall(Cycle now)
{
    if (!active_ || config_.busStallCycles == 0 || now < stallOverAt_ ||
        !rng_.chance(config_.busStallProbability)) {
        return 0;
    }
    stallOverAt_ = now + config_.busStallCycles;
    ++stats_.busStalls;
    stats_.busStallCycles += config_.busStallCycles;
    return config_.busStallCycles;
}

bool
FaultInjector::sampleReadError()
{
    if (!active_ || !rng_.chance(config_.readErrorProbability))
        return false;
    ++stats_.readErrors;
    return true;
}

Cycle
FaultInjector::sampleEnqueueDelay()
{
    if (!active_ || config_.enqueueDelayMax == 0 ||
        !rng_.chance(config_.enqueueDelayProbability)) {
        return 0;
    }
    const Cycle d = rng_.range(1, config_.enqueueDelayMax);
    ++stats_.enqueueDelays;
    stats_.enqueueDelayCycles += d;
    return d;
}

EccOutcome
FaultInjector::sampleEccRead()
{
    if (!eccActive_)
        return EccOutcome::Clean;
    // One uniform draw decides the outcome; validate() guarantees the
    // probabilities sum to at most 1.
    const double u = eccRng_.uniform();
    if (u < ecc_.uncorrectableProbability) {
        ++stats_.eccMultiBit;
        return EccOutcome::Uncorrectable;
    }
    if (u < ecc_.uncorrectableProbability +
                ecc_.correctableProbability) {
        ++stats_.eccSingleBit;
        return EccOutcome::Corrected;
    }
    return EccOutcome::Clean;
}

} // namespace smtdram
