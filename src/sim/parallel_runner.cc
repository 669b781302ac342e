#include "sim/parallel_runner.hh"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/logging.hh"

namespace smtdram
{

namespace
{

/**
 * The machine an alone-IPC baseline for a mix on @p config runs on:
 * one hardware thread, and no observability outputs, so baseline runs
 * never clobber the mix run's trace/stats files.  The memo keys on
 * exactly this config.
 */
SystemConfig
aloneConfig(const SystemConfig &config)
{
    SystemConfig alone = config;
    alone.core.numThreads = 1;
    alone.observe = ObservabilityConfig{};
    return alone;
}

} // namespace

ParallelExperimentRunner::ParallelExperimentRunner(
    const ExperimentParams &params, unsigned jobs)
    : params_(params), jobs_(jobs == 0 ? 1 : jobs)
{
}

std::size_t
ParallelExperimentRunner::submitMix(const SystemConfig &config,
                                    const WorkloadMix &mix,
                                    bool per_config_baselines)
{
    auto job = std::make_unique<Job>();
    job->config = config;
    job->mix = mix;
    job->perConfigBaselines = per_config_baselines;
    jobs_queue_.push_back(std::move(job));
    return jobs_queue_.size() - 1;
}

double
ParallelExperimentRunner::aloneIpc(const std::string &app,
                                   const SystemConfig &config)
{
    const SystemConfig alone = aloneConfig(config);

    std::shared_future<double> fut;
    std::promise<double> mine;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(baselineMu_);
        auto it = std::find_if(
            baselines_.begin(), baselines_.end(),
            [&](const Baseline &b) {
                return b.app == app && b.alone == alone;
            });
        if (it != baselines_.end()) {
            fut = it->ipc;
        } else {
            // First requester: claim the key, then simulate outside
            // the lock.  Waiters block on the shared_future, never on
            // a queued job, so busy workers cannot deadlock.
            fut = mine.get_future().share();
            baselines_.push_back({app, alone, fut});
            compute = true;
        }
    }
    if (compute) {
        baselineSims_.fetch_add(1, std::memory_order_relaxed);
        try {
            // The alone run is a one-app mix on the alone machine.
            const RunResult r = runSystem(
                alone, profilesForMix({app, {app}}), params_.seed,
                params_.measureInsts, params_.warmupInsts);
            mine.set_value(r.ipc.at(0));
        } catch (...) {
            mine.set_exception(std::current_exception());
        }
    }
    return fut.get();
}

MixRun
ParallelExperimentRunner::runMix(const Job &job)
{
    // An exception, not a fatal(), so one malformed cell fails the
    // sweep cleanly (and deterministically: run() rethrows by
    // submission index) instead of killing the process from a worker
    // thread.
    if (job.config.core.numThreads != job.mix.apps.size()) {
        throw std::invalid_argument(
            "config has " +
            std::to_string(job.config.core.numThreads) +
            " threads but mix '" + job.mix.name + "' has " +
            std::to_string(job.mix.apps.size()) + " apps");
    }

    MixRun out;
    out.run = runSystem(job.config, profilesForMix(job.mix),
                        params_.seed, params_.measureInsts,
                        params_.warmupInsts);
    const SystemConfig reference = SystemConfig::paperDefault(1);
    const SystemConfig &baseline =
        job.perConfigBaselines ? job.config : reference;
    // A job whose machine, observability aside, is its own alone
    // machine (so it runs one thread) is its own baseline: the alone
    // run would repeat this one exactly, observability being inert.
    SystemConfig dark = job.config;
    dark.observe = ObservabilityConfig{};
    const bool own_baseline = aloneConfig(baseline) == dark;
    for (size_t i = 0; i < job.mix.apps.size(); ++i) {
        const double alone = own_baseline
                                 ? out.run.ipc[i]
                                 : aloneIpc(job.mix.apps[i], baseline);
        out.weightedSpeedup += out.run.ipc[i] / alone;
    }
    return out;
}

void
ParallelExperimentRunner::execute(Job &job)
{
    try {
        job.result = runMix(job);
    } catch (...) {
        job.error = std::current_exception();
    }
    job.done = true;
}

void
ParallelExperimentRunner::run()
{
    const std::size_t begin = firstPending_;
    const std::size_t end = jobs_queue_.size();
    firstPending_ = end;

    // No more workers than pending jobs: a worker with no job to take
    // would only be started and joined.
    const std::size_t workers = std::min<std::size_t>(jobs_, end - begin);
    if (workers <= 1) {
        // Serial: no threads, submission order.
        for (std::size_t i = begin; i < end; ++i)
            execute(*jobs_queue_[i]);
    } else {
        // Workers take job indices in submission order from one
        // counter; execute() catches every error, and the threads
        // join when the vector goes out of scope — the barrier.
        std::atomic<std::size_t> next{begin};
        std::vector<std::jthread> threads;
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            threads.emplace_back([this, &next, end] {
                for (std::size_t i = next++; i < end; i = next++)
                    execute(*jobs_queue_[i]);
            });
        }
    }

    // First-error propagation: by submission index, not wall clock.
    for (std::size_t i = begin; i < end; ++i) {
        if (jobs_queue_[i]->error)
            std::rethrow_exception(jobs_queue_[i]->error);
    }
}

const MixRun &
ParallelExperimentRunner::mixResult(std::size_t index) const
{
    panic_if(index >= jobs_queue_.size(), "job index out of range");
    const Job &job = *jobs_queue_[index];
    panic_if(!job.done, "job %zu not run yet (call run())", index);
    return job.result;
}

} // namespace smtdram
