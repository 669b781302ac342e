#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace smtdram
{

LogHistogram::LogHistogram()
    // 32 exact slots + 4 sub-buckets for each octave 2^5 .. 2^63.
    : counts_(kLinearMax + (64 - kFirstOctave) * kSubBuckets, 0)
{
}

size_t
LogHistogram::bucketIndex(std::uint64_t v)
{
    if (v < kLinearMax)
        return static_cast<size_t>(v);
    const unsigned octave = floorLog2(v);
    const unsigned sub =
        static_cast<unsigned>((v >> (octave - 2)) & (kSubBuckets - 1));
    return kLinearMax + (octave - kFirstOctave) * kSubBuckets + sub;
}

std::uint64_t
LogHistogram::bucketLowerBound(size_t i)
{
    if (i < kLinearMax)
        return i;
    const size_t rel = i - kLinearMax;
    const unsigned octave =
        kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
    const unsigned sub = static_cast<unsigned>(rel % kSubBuckets);
    return (std::uint64_t{1} << octave) +
           (std::uint64_t{sub} << (octave - 2));
}

void
LogHistogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    counts_[bucketIndex(v)] += count;
    total_ += count;
    sum_ += v * count;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
LogHistogram::reset()
{
    *this = LogHistogram();
}

double
LogHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // 1-based rank of the target sample; p=100 is the last sample.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        const std::uint64_t in_bucket = counts_[i];
        if (in_bucket == 0 || seen + in_bucket < target) {
            seen += in_bucket;
            continue;
        }
        const std::uint64_t lo = bucketLowerBound(i);
        const std::uint64_t hi =
            (i + 1 < counts_.size()) ? bucketLowerBound(i + 1)
                                     : max_ + 1;
        if (hi - lo <= 1)
            return static_cast<double>(lo);  // exact bucket
        // Interpolate within [lo, hi) by the fraction of the bucket's
        // samples at or below the target rank.
        const double frac = static_cast<double>(target - seen) /
                            static_cast<double>(in_bucket);
        double v = static_cast<double>(lo) +
                   frac * static_cast<double>(hi - lo);
        v = std::min(v, static_cast<double>(max_));
        v = std::max(v, static_cast<double>(min_));
        return v;
    }
    return static_cast<double>(max_);
}

double
LogHistogram::fractionAbove(std::uint64_t v) const
{
    panic_if(v >= kLinearMax,
             "fractionAbove(%llu) is inexact: values from %llu share "
             "buckets", (unsigned long long)v,
             (unsigned long long)kLinearMax);
    if (total_ == 0)
        return 0.0;
    std::uint64_t at_most = 0;
    for (std::uint64_t i = 0; i <= v; ++i)
        at_most += counts_[i];
    return static_cast<double>(total_ - at_most) / total_;
}

std::vector<HistogramBin>
binFractions(const LogHistogram &h, const std::vector<std::uint64_t> &bounds)
{
    panic_if(bounds.empty(), "binFractions needs at least one bound");
    const auto share = [&h](std::uint64_t n) {
        return h.total() ? static_cast<double>(n) / h.total() : 0.0;
    };
    std::vector<HistogramBin> bins;
    std::uint64_t lo = 0;
    std::uint64_t binned = 0;
    for (const std::uint64_t hi : bounds) {
        panic_if(hi < lo, "bin bounds must be strictly increasing");
        panic_if(hi >= LogHistogram::kLinearMax,
                 "bin bound %llu is inexact: values from %llu share "
                 "buckets", (unsigned long long)hi,
                 (unsigned long long)LogHistogram::kLinearMax);
        std::uint64_t n = 0;
        for (std::uint64_t v = lo; v <= hi; ++v)
            n += h.bucketCount(v);
        bins.push_back({lo == hi ? std::to_string(hi)
                                 : std::to_string(lo) + "-" +
                                       std::to_string(hi),
                        share(n)});
        binned += n;
        lo = hi + 1;
    }
    bins.push_back({">" + std::to_string(bounds.back()),
                    share(h.total() - binned)});
    return bins;
}

} // namespace smtdram
