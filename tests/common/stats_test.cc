/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.hh"

namespace smtdram
{
namespace
{

// The read-latency and read-queueing distributions are LogHistograms:
// count, sum, min and max are exact integers.

TEST(Distribution, EmptyIsZero)
{
    LogHistogram d;
    EXPECT_EQ(d.total(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
}

TEST(Distribution, TracksMoments)
{
    LogHistogram d;
    d.sample(2);
    d.sample(4);
    d.sample(9);
    EXPECT_EQ(d.total(), 3u);
    EXPECT_EQ(d.sum(), 15u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_EQ(d.min(), 2u);
    EXPECT_EQ(d.max(), 9u);
}

TEST(Distribution, SumIsExactPastDoublePrecision)
{
    // 2^53 + 1 is the first integer a double cannot hold.
    LogHistogram d;
    d.sample(std::uint64_t{1} << 53);
    d.sample(1);
    EXPECT_EQ(d.sum(), (std::uint64_t{1} << 53) + 1);
}

TEST(Distribution, ResetClears)
{
    LogHistogram d;
    d.sample(1);
    d.reset();
    EXPECT_EQ(d.total(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(Distribution, MergeCombinesExactly)
{
    LogHistogram a, b;
    a.sample(1);
    a.sample(3);
    b.sample(10);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.sum(), 14u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 10u);
}

TEST(Distribution, MergeWithEmptyIsIdentity)
{
    LogHistogram a, empty;
    a.sample(5);
    a.merge(empty);
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(a.sum(), 5u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 5u);
}

// The Figure 4/5 histograms are LogHistograms cut into the figures'
// bins at report time by binFractions().

TEST(Histogram, PaperFigure4Buckets)
{
    // Bounds {1,4,8,16}: bins [0,1], [2,4], [5,8], [9,16], >16.
    LogHistogram h;
    h.sample(1);
    h.sample(2);
    h.sample(4);
    h.sample(8);
    h.sample(16);
    h.sample(17);
    h.sample(100);
    EXPECT_EQ(h.total(), 7u);
    const std::vector<HistogramBin> bins = binFractions(h, {1, 4, 8, 16});
    ASSERT_EQ(bins.size(), 5u);
    EXPECT_DOUBLE_EQ(bins[0].fraction, 1.0 / 7);
    EXPECT_DOUBLE_EQ(bins[1].fraction, 2.0 / 7);
    EXPECT_DOUBLE_EQ(bins[2].fraction, 1.0 / 7);
    EXPECT_DOUBLE_EQ(bins[3].fraction, 1.0 / 7);
    EXPECT_DOUBLE_EQ(bins[4].fraction, 2.0 / 7);
}

TEST(Histogram, BucketFractionsSumToOne)
{
    LogHistogram h;
    for (std::uint64_t v = 0; v < 40; ++v)
        h.sample(v);
    double sum = 0.0;
    for (const HistogramBin &bin : binFractions(h, {1, 4, 8, 16}))
        sum += bin.fraction;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

/** The labels binFractions() gives @p bounds. */
std::vector<std::string>
labels(const std::vector<std::uint64_t> &bounds)
{
    std::vector<std::string> out;
    for (const HistogramBin &bin : binFractions(LogHistogram(), bounds))
        out.push_back(bin.label);
    return out;
}

TEST(Histogram, Labels)
{
    EXPECT_EQ(labels({1, 4, 8, 16}),
              (std::vector<std::string>{"0-1", "2-4", "5-8", "9-16",
                                        ">16"}));
}

TEST(Histogram, SingleValueBucketLabel)
{
    EXPECT_EQ(labels({1, 2, 3}),
              (std::vector<std::string>{"0-1", "2", "3", ">3"}));
}

TEST(Histogram, SingleValueBinFractions)
{
    LogHistogram h;
    for (std::uint64_t v : {0u, 1u, 2u, 2u, 3u, 3u, 3u, 9u})
        h.sample(v);
    const std::vector<HistogramBin> bins = binFractions(h, {1, 2, 3});
    ASSERT_EQ(bins.size(), 4u);
    EXPECT_DOUBLE_EQ(bins[0].fraction, 2.0 / 8);
    EXPECT_DOUBLE_EQ(bins[1].fraction, 2.0 / 8);
    EXPECT_DOUBLE_EQ(bins[2].fraction, 3.0 / 8);
    EXPECT_DOUBLE_EQ(bins[3].fraction, 1.0 / 8);
}

TEST(Histogram, FractionAboveExact)
{
    LogHistogram h;
    h.sample(5);
    h.sample(9);
    h.sample(20);
    h.sample(200);  // in a shared bucket, but certainly above 8
    EXPECT_DOUBLE_EQ(h.fractionAbove(8), 3.0 / 4.0);
    EXPECT_DOUBLE_EQ(h.fractionAbove(4), 1.0);
    EXPECT_DOUBLE_EQ(h.fractionAbove(20), 1.0 / 4.0);
    EXPECT_DOUBLE_EQ(h.fractionAbove(31), 1.0 / 4.0);
}

TEST(Histogram, EmptyFractions)
{
    const LogHistogram h;
    for (const HistogramBin &bin : binFractions(h, {1, 4, 8, 16}))
        EXPECT_DOUBLE_EQ(bin.fraction, 0.0) << bin.label;
    EXPECT_DOUBLE_EQ(h.fractionAbove(1), 0.0);
}

TEST(Histogram, WeightedSampleEqualsRepeatedSamples)
{
    // The interval-weighted form the event-driven kernel uses must be
    // exactly equivalent to the per-cycle kernel's repeated calls.
    LogHistogram repeated, weighted;
    const std::uint64_t values[] = {0, 3, 8, 17, 200};
    const std::uint64_t counts[] = {5, 1, 119, 42, 7};
    for (size_t i = 0; i < 5; ++i) {
        for (std::uint64_t n = 0; n < counts[i]; ++n)
            repeated.sample(values[i]);
        weighted.sample(values[i], counts[i]);
    }
    ASSERT_EQ(repeated.total(), weighted.total());
    EXPECT_EQ(repeated.sum(), weighted.sum());
    EXPECT_EQ(repeated.min(), weighted.min());
    EXPECT_EQ(repeated.max(), weighted.max());
    for (size_t i = 0; i < repeated.numBuckets(); ++i)
        EXPECT_EQ(repeated.bucketCount(i), weighted.bucketCount(i));
    for (std::uint64_t v : {0u, 1u, 4u, 8u, 16u, 31u})
        EXPECT_DOUBLE_EQ(repeated.fractionAbove(v),
                         weighted.fractionAbove(v));
}

TEST(Histogram, WeightedSampleOfZeroCountIsANoOp)
{
    LogHistogram h;
    h.sample(3, 0);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.bucketCount(3), 0u);

    // Nor does it disturb a histogram that holds samples.
    h.sample(5);
    h.sample(1, 0);
    h.sample(100, 0);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), 5u);
}

TEST(Histogram, ResetClears)
{
    LogHistogram h;
    h.sample(1, 4);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    for (const HistogramBin &bin : binFractions(h, {1, 2}))
        EXPECT_DOUBLE_EQ(bin.fraction, 0.0) << bin.label;
}

TEST(HistogramDeathTest, BadBoundsPanic)
{
    // From 32 on, values share buckets: no exact answer exists.
    LogHistogram h;
    h.sample(40);
    EXPECT_DEATH(h.fractionAbove(32), "fractionAbove\\(32\\) is inexact");
    EXPECT_DEATH(binFractions(h, {1, 32}), "bin bound 32 is inexact");
    EXPECT_DEATH(binFractions(h, {4, 4}), "strictly increasing");
    EXPECT_DEATH(binFractions(h, {}), "at least one bound");
}

TEST(LogHistogram, EmptyIsZero)
{
    LogHistogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p999(), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact)
{
    // 0..31 get one bucket each, so small-value percentiles are
    // exact integer-rank statistics, no interpolation error.
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 10; ++v)
        h.sample(v);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
    EXPECT_DOUBLE_EQ(h.p50(), 5.0);
    EXPECT_DOUBLE_EQ(h.p90(), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
}

TEST(LogHistogram, BucketIndexRoundTrips)
{
    // bucketLowerBound(bucketIndex(v)) <= v for all v, and the lower
    // bound itself maps back into the same bucket.
    for (std::uint64_t v :
         {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull, 100ull,
          1000ull, 65535ull, 1ull << 20, (1ull << 40) + 12345}) {
        const size_t i = LogHistogram::bucketIndex(v);
        EXPECT_LE(LogHistogram::bucketLowerBound(i), v);
        EXPECT_EQ(LogHistogram::bucketIndex(
                      LogHistogram::bucketLowerBound(i)),
                  i);
        if (i + 1 < LogHistogram().numBuckets()) {
            EXPECT_GT(LogHistogram::bucketLowerBound(i + 1), v);
        }
    }
}

TEST(LogHistogram, PercentilesBracketedAndClamped)
{
    // Large values land in ~12.5%-wide log buckets; percentile()
    // interpolates inside the bucket, so the answer must stay inside
    // it and inside the observed [min, max].
    LogHistogram h;
    for (std::uint64_t v = 100; v < 1100; ++v)
        h.sample(v);
    const double p50 = h.p50();
    const double p99 = h.p99();
    EXPECT_GE(p50, 100.0);
    EXPECT_LE(p50, 1099.0);
    // True p50 is ~600; one sub-bucket at that magnitude spans 128.
    EXPECT_NEAR(p50, 600.0, 128.0);
    EXPECT_NEAR(p99, 1090.0, 128.0);
    EXPECT_GE(p99, p50);
    EXPECT_LE(h.p999(), 1099.0);
}

TEST(LogHistogram, SingleValueAllPercentilesCollapse)
{
    LogHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.sample(777);
    EXPECT_DOUBLE_EQ(h.p50(), 777.0);
    EXPECT_DOUBLE_EQ(h.p99(), 777.0);
    EXPECT_DOUBLE_EQ(h.p999(), 777.0);
}

TEST(LogHistogram, MergeMatchesCombinedSampling)
{
    LogHistogram a, b, both;
    for (std::uint64_t v = 0; v < 500; v += 3) {
        a.sample(v);
        both.sample(v);
    }
    for (std::uint64_t v = 1000; v < 9000; v += 7) {
        b.sample(v * v % 8191);
        both.sample(v * v % 8191);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), both.total());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    EXPECT_DOUBLE_EQ(a.p50(), both.p50());
    EXPECT_DOUBLE_EQ(a.p99(), both.p99());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), both.bucketCount(i));
}

TEST(LogHistogram, MergeWithEmptyIsIdentity)
{
    LogHistogram a, empty;
    a.sample(5);
    a.sample(500);
    a.merge(empty);
    EXPECT_EQ(a.total(), 2u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 500u);

    LogHistogram b;
    b.merge(a);
    EXPECT_EQ(b.total(), 2u);
    EXPECT_EQ(b.min(), 5u);
    EXPECT_EQ(b.max(), 500u);

    // Derived views survive the round-trip through an empty merge.
    EXPECT_DOUBLE_EQ(b.mean(), a.mean());
    EXPECT_DOUBLE_EQ(b.p50(), a.p50());
    EXPECT_DOUBLE_EQ(b.p99(), a.p99());

    // Empty-into-empty stays empty (min_ sentinel must not leak).
    LogHistogram e1, e2;
    e1.merge(e2);
    EXPECT_EQ(e1.total(), 0u);
    EXPECT_EQ(e1.min(), 0u);
    EXPECT_EQ(e1.max(), 0u);
    EXPECT_DOUBLE_EQ(e1.mean(), 0.0);
}

TEST(LogHistogram, SaturatingValuesLandInTheLastBucket)
{
    // 2^63 and friends must map to valid buckets with no overflow in
    // the sub-bucket shift arithmetic.
    const std::uint64_t huge = std::uint64_t{1} << 63;
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    const size_t buckets = LogHistogram().numBuckets();
    EXPECT_LT(LogHistogram::bucketIndex(huge), buckets);
    EXPECT_EQ(LogHistogram::bucketIndex(top), buckets - 1);
    EXPECT_LE(LogHistogram::bucketLowerBound(buckets - 1), top);

    LogHistogram h;
    h.sample(huge);
    h.sample(huge + 1);
    h.sample(top);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.min(), huge);
    EXPECT_EQ(h.max(), top);
    // Percentiles of the open-ended top octave stay clamped inside
    // the observed range even though hi = max_ + 1 wraps.
    for (double p : {1.0, 50.0, 99.0, 100.0}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, static_cast<double>(h.min())) << p;
        EXPECT_LE(v, static_cast<double>(h.max())) << p;
    }

    // Merging saturated histograms stays saturated, not wrapped.
    LogHistogram other;
    other.merge(h);
    other.merge(h);
    EXPECT_EQ(other.total(), 6u);
    EXPECT_EQ(other.max(), top);
    EXPECT_EQ(other.bucketCount(buckets - 1), h.bucketCount(buckets - 1) * 2);
}

TEST(LogHistogram, PercentileAtExactBoundaryCounts)
{
    // Values below kLinearMax sit in width-1 buckets, so percentile()
    // is exact and the rank arithmetic at bucket boundaries is
    // observable: with two samples, p50 is the first sample (rank
    // ceil(0.5*2) = 1) and anything above p50 is the second.
    LogHistogram h;
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.1), 20.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 20.0);
    // p is clamped into (0, 100]: rank never drops to zero and an
    // out-of-range request degrades to the extremes.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(500.0), 20.0);

    // Four equally spaced samples: every quartile boundary is exact.
    LogHistogram q;
    for (std::uint64_t v : {4u, 8u, 12u, 16u})
        q.sample(v);
    EXPECT_DOUBLE_EQ(q.percentile(25.0), 4.0);
    EXPECT_DOUBLE_EQ(q.percentile(50.0), 8.0);
    EXPECT_DOUBLE_EQ(q.percentile(75.0), 12.0);
    EXPECT_DOUBLE_EQ(q.percentile(100.0), 16.0);
}

TEST(LogHistogram, ResetClears)
{
    LogHistogram h;
    h.sample(42);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
}

TEST(RatioStat, Rates)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.missRate(), 0.0);
    r.hit();
    r.hit();
    r.hit();
    r.miss();
    EXPECT_EQ(r.total(), 4u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.25);
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.75);
    r.reset();
    EXPECT_EQ(r.total(), 0u);
}

} // namespace
} // namespace smtdram
