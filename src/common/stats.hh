/**
 * @file
 * Lightweight statistics primitives.
 *
 * Subsystems expose their measurements through these types rather than
 * bare counters so the benches can print uniformly and the tests can
 * assert on well-defined quantities.
 */

#ifndef SMTDRAM_COMMON_STATS_HH
#define SMTDRAM_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace smtdram
{

/**
 * Log-bucketed histogram with percentile queries: the one
 * distribution type.
 *
 * Values 0..31 are counted exactly; larger values fall into
 * power-of-two octaves split into four linear sub-buckets each
 * (HdrHistogram-style), so relative error is bounded by 1/4 of the
 * bucket width at any magnitude up to 2^63.  sample() is a handful of
 * bit operations and one array increment, cheap enough to leave on in
 * every build — the paper's latency/queue-depth figures are
 * distribution statements, and count/sum/min/max alone cannot answer
 * them.  Count, sum, min and max are kept exactly, as integers.
 */
class LogHistogram
{
  public:
    /** Every value below this has a bucket of its own. */
    static constexpr std::uint64_t kLinearMax = 32;

    LogHistogram();

    /** Record one observation of value @p v. */
    void sample(std::uint64_t v) { sample(v, 1); }

    /**
     * Record @p count observations of value @p v at once — the
     * interval-weighted form the event-driven kernel uses for a
     * skipped window of identical per-cycle samples.  Exactly
     * equivalent to calling sample(v) @p count times; a zero count
     * records nothing.
     */
    void sample(std::uint64_t v, std::uint64_t count);

    /** Fold @p other into this histogram (exact union). */
    void merge(const LogHistogram &other);

    void reset();

    std::uint64_t total() const { return total_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return total_ ? min_ : 0; }
    std::uint64_t max() const { return total_ ? max_ : 0; }
    double mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /**
     * Value at percentile @p p in (0, 100]; linear interpolation
     * inside the containing bucket, clamped to the observed
     * [min, max].  Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    /**
     * Fraction of samples strictly above @p v (0 if none).  Exact;
     * panics unless @p v < kLinearMax, above which values share
     * buckets.
     */
    double fractionAbove(std::uint64_t v) const;

    // --- bucket iteration (for exporters) --------------------------
    size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(size_t i) const { return counts_[i]; }
    /** Smallest value mapping to bucket @p i. */
    static std::uint64_t bucketLowerBound(size_t i);

    /** Bucket index a value falls into (exposed for tests). */
    static size_t bucketIndex(std::uint64_t v);

  private:
    static constexpr unsigned kSubBuckets = 4;
    static constexpr unsigned kFirstOctave = 5;      ///< 2^5 == 32

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/** One bin of a report-time view of a LogHistogram. */
struct HistogramBin {
    std::string label;  ///< "0-1", "2-4", "3", ">16"
    double fraction;    ///< share of all samples (0 if none)
};

/**
 * @p h cut into the bins that @p bounds, strictly increasing
 * inclusive upper bounds, delimit: {1, 4, 8, 16} gives "0-1", "2-4",
 * "5-8", "9-16" and ">16".  Exact; panics unless every bound is
 * below LogHistogram::kLinearMax.
 */
std::vector<HistogramBin> binFractions(
    const LogHistogram &h, const std::vector<std::uint64_t> &bounds);

/** Hit/miss style ratio counter. */
class RatioStat
{
  public:
    void hit() { ++hits_; }
    void miss() { ++misses_; }

    void
    reset()
    {
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t total() const { return hits_ + misses_; }

    double
    missRate() const
    {
        const std::uint64_t t = total();
        return t ? static_cast<double>(misses_) / t : 0.0;
    }

    double hitRate() const { return total() ? 1.0 - missRate() : 0.0; }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_COMMON_STATS_HH
