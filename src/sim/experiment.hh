/**
 * @file
 * High-level experiment helpers shared by the benches, examples, and
 * integration tests: one simulation run and the configuration label.
 * Single-thread baselines and weighted speedup live in
 * ParallelExperimentRunner.
 */

#ifndef SMTDRAM_SIM_EXPERIMENT_HH
#define SMTDRAM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/smt_system.hh"
#include "sim/system_config.hh"
#include "workload/spec2000.hh"

namespace smtdram
{

/** Result of running one workload mix on one configuration. */
struct MixRun {
    RunResult run;
    /** Weighted speedup = sum_i IPC_mix,i / IPC_alone,i  [28]. */
    double weightedSpeedup = 0.0;

    bool operator==(const MixRun &) const = default;
};

/** Instruction budgets and seed shared by a sweep's simulations. */
struct ExperimentParams {
    std::uint64_t measureInsts = 200'000;
    std::uint64_t warmupInsts = 50'000;
    std::uint64_t seed = 42;
};

/**
 * Run one simulation of @p apps on an SmtSystem built from
 * @p config (the 1x1 machine unless the config carries an active
 * topology).  Pure: no caching, safe to call from any thread.
 */
RunResult runSystem(const SystemConfig &config,
                    const std::vector<AppProfile> &apps,
                    std::uint64_t seed, std::uint64_t measure_insts,
                    std::uint64_t warmup_insts);

/**
 * Human-readable label of a configuration's memory system, printed
 * as the stats document's `meta.config`.  It names only the fields the
 * figures vary, so it is a label, not an identity: configs compare
 * with ==.
 */
std::string configSignature(const SystemConfig &config);

/** Build per-thread profiles for a mix. */
std::vector<AppProfile> profilesForMix(const WorkloadMix &mix);

} // namespace smtdram

#endif // SMTDRAM_SIM_EXPERIMENT_HH
