/**
 * @file
 * Parallel experiment orchestration.
 *
 * Every paper figure is a sweep of independent simulations — (config
 * × mix) cells plus their single-thread alone-IPC baselines.  The
 * simulator itself is strictly deterministic, so the sweep is
 * embarrassingly parallel: this runner executes submitted mix runs on
 * worker threads it starts itself, is the one place baselines are
 * memoized and weighted speedups are computed, and guarantees
 *
 *  - **submission-order results**: results are read back by the index
 *    submitMix() returned, whatever order workers finished in, so bench
 *    output is byte-identical for every --jobs value;
 *  - **baseline dedup**: alone-IPC baselines are memoized as
 *    std::shared_futures keyed by (app, alone config), compared with
 *    == — the key is the machine that runs.  Each baseline simulates
 *    exactly once even when many mixes request it concurrently, and
 *    the first requester computes it inline (no nested jobs, so
 *    busy workers can never deadlock on their own futures).  A
 *    one-thread job that runs on its own baseline machine is its own
 *    baseline and simulates nothing more (Figure 1's four machines);
 *  - **first-error propagation**: run() rethrows the error of the
 *    lowest-index failed job, deterministically, regardless of which
 *    worker failed first on the wall clock.
 *
 * run() starts no more workers than it has pending jobs.  With
 * jobs == 1, or one pending job, no threads are created at all: run()
 * executes everything inline in submission order, so single-threaded
 * callers (the quickstart example, tests) use the same memo and
 * arithmetic.
 */

#ifndef SMTDRAM_SIM_PARALLEL_RUNNER_HH
#define SMTDRAM_SIM_PARALLEL_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace smtdram
{

/** Executes independent experiment jobs on worker threads. */
class ParallelExperimentRunner
{
  public:
    /**
     * @param params instruction budgets and seed for every job.
     * @param jobs worker threads; 1 = serial (no threads spawned),
     *        0 is clamped to 1.
     */
    ParallelExperimentRunner(const ExperimentParams &params,
                             unsigned jobs);

    ParallelExperimentRunner(const ParallelExperimentRunner &) = delete;
    ParallelExperimentRunner &
    operator=(const ParallelExperimentRunner &) = delete;

    /**
     * Queue one mix run.  Its weighted speedup divides each thread's
     * IPC by the app's alone IPC on the paper's default machine, or,
     * with @p per_config_baselines, on @p config itself (Figures 1
     * and 3).  A one-thread run whose config, observability aside, is
     * that alone machine is its own baseline: its weighted speedup is
     * 1 and no baseline is simulated for it.
     * @return the job's index; pass it to mixResult() after run().
     */
    std::size_t submitMix(const SystemConfig &config,
                          const WorkloadMix &mix,
                          bool per_config_baselines = false);

    /**
     * Execute every job submitted since the last run() and block
     * until all finish.  If any job failed, rethrows the error of
     * the lowest submission index.  May be called repeatedly;
     * already-finished jobs keep their results.
     */
    void run();

    const MixRun &mixResult(std::size_t index) const;

    unsigned jobs() const { return jobs_; }
    std::size_t submitted() const { return jobs_queue_.size(); }

    /**
     * Single-thread IPC of @p app on @p config's machine, memoized:
     * the run uses one hardware thread, no observability outputs and
     * no pin map, and so does the key.  Computes inline on the first
     * request; safe to call from any thread.
     */
    double aloneIpc(const std::string &app, const SystemConfig &config);

    /**
     * Alone-IPC simulations actually executed (not memo hits).  The
     * dedup guarantee in one number: after any run(), this equals
     * the count of distinct (app, alone config) keys needed.
     */
    std::size_t
    baselineSimulations() const
    {
        return baselineSims_.load(std::memory_order_relaxed);
    }

  private:
    struct Job {
        SystemConfig config;
        WorkloadMix mix;
        bool perConfigBaselines = false;
        // Outcome.
        MixRun result;
        std::exception_ptr error;
        bool done = false;
    };

    /** One memoized baseline: the key and its (pending) IPC. */
    struct Baseline {
        std::string app;
        SystemConfig alone;
        std::shared_future<double> ipc;
    };

    void execute(Job &job);
    MixRun runMix(const Job &job);

    ExperimentParams params_;
    unsigned jobs_;

    /** unique_ptr for stable addresses while workers fill results. */
    std::vector<std::unique_ptr<Job>> jobs_queue_;
    std::size_t firstPending_ = 0;

    std::mutex baselineMu_;
    std::vector<Baseline> baselines_;
    std::atomic<std::size_t> baselineSims_{0};
};

} // namespace smtdram

#endif // SMTDRAM_SIM_PARALLEL_RUNNER_HH
