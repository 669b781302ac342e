/**
 * @file
 * Tests for the StatsRegistry: one source pass per sample, the shape
 * rule, epoch sampling, and the schema-versioned JSON / CSV exports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/stats_registry.hh"

namespace smtdram
{
namespace
{

TEST(StatsRegistry, ScalarProvidersAreLive)
{
    double x = 1.0;
    StatsRegistry r([&x](StatsSample &s) { s.scalar("x", x); });
    EXPECT_DOUBLE_EQ(r.value("x"), 1.0);
    x = 7.0;
    EXPECT_DOUBLE_EQ(r.value("x"), 7.0);
}

TEST(StatsRegistry, EpochSeriesRecordsEachSample)
{
    double x = 0.0;
    StatsRegistry r([&x](StatsSample &s) { s.scalar("x", x); });
    for (Cycle c = 100; c <= 300; c += 100) {
        x = static_cast<double>(c) / 10.0;
        r.sampleEpoch(c);
    }
    EXPECT_EQ(r.epochs(), 3u);

    std::ostringstream csv;
    r.writeCsv(csv, 400);
    const std::string doc = csv.str();
    EXPECT_EQ(doc.find("cycle,x\n"), 0u);
    EXPECT_NE(doc.find("\n100,10"), std::string::npos);
    EXPECT_NE(doc.find("\n300,30"), std::string::npos);
    // Terminal row carries the final snapshot at the run-end cycle.
    EXPECT_NE(doc.find("\n400,30"), std::string::npos);
}

TEST(StatsRegistry, JsonDocumentCarriesSchemaAndContent)
{
    StatsRegistry r([](StatsSample &s) {
        s.scalar("dram.reads", 42.0);
        LogHistogram h;
        for (std::uint64_t v = 1; v <= 100; ++v)
            h.sample(v);
        s.histogram("lat", h);
    });
    r.setMeta("config", "test-config");
    r.sampleEpoch(1000);

    std::ostringstream os;
    r.writeJson(os, 2000);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"schema\":\"smtdram-stats\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\":3"), std::string::npos);
    EXPECT_NE(doc.find("\"config\":\"test-config\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"finalCycle\":2000"), std::string::npos);
    EXPECT_NE(doc.find("\"dram.reads\":42"), std::string::npos);
    EXPECT_NE(doc.find("\"lat\":"), std::string::npos);
    EXPECT_NE(doc.find("\"count\":100"), std::string::npos);
    EXPECT_NE(doc.find("\"p50\":"), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\":[["), std::string::npos);
    EXPECT_NE(doc.find("\"epochs\":"), std::string::npos);

    // Structural sanity chrome-side tooling relies on.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));
}

TEST(StatsRegistry, OneSourcePassPerSample)
{
    int passes = 0;
    StatsRegistry r([&passes](StatsSample &s) {
        ++passes;
        s.scalar("a", 1.0);
        s.scalar("b", 2.0);
        s.histogram("h", LogHistogram());
    });
    EXPECT_EQ(passes, 0);
    r.sampleEpoch(10);
    EXPECT_EQ(passes, 1);
    std::ostringstream json;
    r.writeJson(json, 20);
    EXPECT_EQ(passes, 2);
    std::ostringstream csv;
    r.writeCsv(csv, 20);
    EXPECT_EQ(passes, 3);
    EXPECT_DOUBLE_EQ(r.value("b"), 2.0);
    EXPECT_EQ(passes, 4);
}

TEST(StatsRegistryDeath, DuplicateNamePanics)
{
    StatsRegistry r([](StatsSample &s) {
        s.scalar("dup", 0.0);
        s.scalar("dup", 1.0);
    });
    EXPECT_DEATH(r.sampleEpoch(10), "dup");
}

TEST(StatsRegistryDeath, RegistrationAfterSamplingPanics)
{
    // The first sample fixes the shape; a stat that appears later is
    // a shape change, named in the panic.
    bool late = false;
    StatsRegistry r([&late](StatsSample &s) {
        s.scalar("a", 0.0);
        if (late)
            s.scalar("late", 0.0);
    });
    r.sampleEpoch(10);
    late = true;
    EXPECT_DEATH(r.sampleEpoch(20), "late");

    // Dropping a stat is a shape change too.
    bool gone = false;
    StatsRegistry shrinking([&gone](StatsSample &s) {
        if (!gone)
            s.scalar("gone", 0.0);
    });
    shrinking.sampleEpoch(10);
    gone = true;
    EXPECT_DEATH(shrinking.sampleEpoch(20), "gone");
}

} // namespace
} // namespace smtdram
