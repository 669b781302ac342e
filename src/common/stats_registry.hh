/**
 * @file
 * Machine-readable statistics pipeline.
 *
 * A StatsRegistry has one source: a function that writes every scalar
 * and histogram of one sample, in document order, into a StatsSample.
 * The registry calls it exactly once per sampleEpoch(), writeJson(),
 * writeCsv() and value(), so every sample sees live state and the
 * source computes whatever its stats share (a cross-channel
 * aggregate, say) once per sample.  The registry samples the scalars
 * into an epoch-indexed time series during a run and exports one
 * schema-versioned JSON (and optionally CSV) document per run:
 *
 *   {
 *     "schema": "smtdram-stats", "version": 1,
 *     "meta": { "config": "...", ... },
 *     "finalCycle": N,
 *     "scalars": { "dram.reads": 123, ... },
 *     "histograms": { "dram.read_latency":
 *         { "count", "min", "max", "mean",
 *           "p50", "p90", "p99", "p999", "buckets": [[lo, n], ...] } },
 *     "epochs": { "cycle": [...], "series": { name: [...] } }
 *   }
 *
 * The CSV export is the epoch time series (one row per epoch, one
 * column per scalar) plus a terminal "final" row, for spreadsheet and
 * pandas consumption without a JSON parser.
 *
 * Shape rule: the first sample fixes the names and their order.  A
 * later sample whose names differ panics naming the stray stat, and a
 * name emitted twice in one sample panics, so the CSV header, the JSON
 * scalar keys and the epoch series keys always agree.  A registry
 * costs nothing until it is sampled or written; benches that don't
 * pass --stats-json never create one.
 */

#ifndef SMTDRAM_COMMON_STATS_REGISTRY_HH
#define SMTDRAM_COMMON_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** Every scalar and histogram of one sample, in document order. */
struct StatsSample {
    std::vector<std::pair<std::string, double>> scalars;
    std::vector<std::pair<std::string, LogHistogram>> histograms;

    void
    scalar(std::string name, double value)
    {
        scalars.emplace_back(std::move(name), value);
    }

    void
    histogram(std::string name, LogHistogram hist)
    {
        histograms.emplace_back(std::move(name), std::move(hist));
    }
};

/** Single-source statistics registry with epoch sampling. */
class StatsRegistry
{
  public:
    /** Bumped whenever the exported document layout changes.
     *  v2: latency-blame scalars/histograms (dram.blame.*), per-thread
     *  CPI-stack scalars (cpu.t<i>.blame.*), interference matrix
     *  (dram.interference.*), trace.dropped_events, and per-channel
     *  power-residency/hammer-mitigation series.
     *  v3: NUMA topology block (numa.* scalars, per-socket and
     *  per-thread remote-access series, "sockets"/"cores" meta keys),
     *  emitted only when the machine has a nontrivial topology; a
     *  trivial or disabled topology emits the identical v2 key set
     *  under the v3 version stamp. */
    static constexpr std::uint32_t kSchemaVersion = 3;
    static constexpr const char *kSchemaName = "smtdram-stats";

    /** Writes one complete sample. */
    using Source = std::function<void(StatsSample &)>;

    explicit StatsRegistry(Source source) : source_(std::move(source)) {}

    /** Attach a key/value to the exported "meta" object. */
    void setMeta(const std::string &key, const std::string &value);

    /** Record one epoch sample of every scalar. */
    void sampleEpoch(Cycle now);

    size_t epochs() const { return epochCycles_.size(); }

    /** One scalar of a fresh sample, by name (tests, summaries). */
    double value(const std::string &name) const;

    /** Write the full JSON document; @p final_cycle stamps the run. */
    void writeJson(std::ostream &os, Cycle final_cycle) const;

    /** Write the epoch time series + final row as CSV. */
    void writeCsv(std::ostream &os, Cycle final_cycle) const;

  private:
    /** Run the source once and hold the sample to the shape rule. */
    StatsSample sample() const;

    Source source_;
    /** The shape, fixed by the first sample (hence mutable: every
     *  const export may be that first sample). */
    mutable std::vector<std::string> scalarNames_;
    mutable std::vector<std::string> histNames_;
    mutable bool shaped_ = false;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<Cycle> epochCycles_;
    /** Epoch-major: scalar i at epoch e is series_[e * scalars + i]. */
    std::vector<double> series_;
};

} // namespace smtdram

#endif // SMTDRAM_COMMON_STATS_REGISTRY_HH
