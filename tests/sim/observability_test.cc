/**
 * @file
 * System-level tests of the observability layer:
 *
 *  - the inert-knob guarantee: turning tracing and stats on changes
 *    no simulated outcome (bit-identical metrics) and leaves the
 *    configuration label and the golden figures frozen;
 *  - the exported artifacts: schema-versioned stats JSON, epoch CSV,
 *    and a trace whose request lifecycles conserve;
 *  - the experiment layer: alone-IPC baseline runs never clobber the
 *    mix run's output files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "run_printer.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/smt_system.hh"
#include "temp_path.hh"

namespace smtdram
{
namespace
{

std::vector<AppProfile>
mixProfiles(const char *name)
{
    std::vector<AppProfile> apps;
    for (const std::string &app : mixByName(name).apps)
        apps.push_back(specProfile(app));
    return apps;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** This test's artifact paths, removed when it ends. */
struct TempPaths {
    std::string trace = testArtifactPath("trace.json");
    std::string json = testArtifactPath("stats.json");
    std::string csv = testArtifactPath("stats.csv");

    TempPaths() { cleanup(); }
    ~TempPaths() { cleanup(); }

    void
    cleanup()
    {
        std::remove(trace.c_str());
        std::remove(json.c_str());
        std::remove(csv.c_str());
    }
};

TEST(Observability, KnobsAreInert)
{
    // The whole layer's contract: a fully instrumented run is the
    // same run as a dark one, every record field to the last bit —
    // epoch sampling reads the energy meter without moving it.
    TempPaths tmp;
    auto run = [&](bool observed) {
        SystemConfig config = SystemConfig::paperDefault(2);
        if (observed) {
            config.observe.tracePath = tmp.trace;
            config.observe.statsJsonPath = tmp.json;
            config.observe.statsCsvPath = tmp.csv;
            config.observe.epoch = 2'000;
        }
        SmtSystem system(config, mixProfiles("2-MEM"), 42);
        return system.run(5000, 2000);
    };
    const RunResult dark = run(false);
    const RunResult lit = run(true);
    EXPECT_EQ(dark, lit);
}

TEST(Observability, ConfigSignatureStaysFrozen)
{
    // ObservabilityConfig is deliberately excluded from the label
    // printed as the stats `meta.config`.  The literal pins the label
    // itself — if this fails, every stats document's meta.config just
    // changed meaning.
    SystemConfig config = SystemConfig::paperDefault(2);
    const std::string dark = configSignature(config);
    EXPECT_EQ(dark, "2C-1G-xor-open-Hit-first-l3real-pf0");

    config.observe.tracePath = "t.json";
    config.observe.statsJsonPath = "s.json";
    config.observe.epoch = 500;
    EXPECT_EQ(configSignature(config), dark);

    // The always-on energy meter is timing-neutral, so its electrical
    // knobs must not fork the signature either.
    config.dram.power.vdd = 99.0;
    config.dram.power.idd0 = 500.0;
    EXPECT_EQ(configSignature(config), dark);

    // The opt-in low-power machine DOES change timing; its thresholds
    // and exit latencies enter the signature the moment it turns on.
    config.dram.withPowerManagement();
    const std::string powered = configSignature(config);
    EXPECT_NE(powered, dark);
    EXPECT_NE(powered.find("-pwr96,1024,8192,18,60,540"),
              std::string::npos)
        << powered;
}

TEST(Observability, PowerKnobsAreInertWhenDisabled)
{
    // Same contract as KnobsAreInert for the power subsystem: with
    // the state machine off, neither electrical currents nor (unused)
    // thresholds may change a simulated outcome.
    auto run = [&](bool mutated) {
        SystemConfig config = SystemConfig::paperDefault(2);
        if (mutated) {
            config.dram.power.vdd = 7.5;
            config.dram.power.idd0 = 400.0;
            config.dram.power.idd3n = 90.0;
            config.dram.power.idd4r = 600.0;
            config.dram.power.idd4w = 550.0;
            config.dram.power.idd5 = 700.0;
            config.dram.power.powerdownIdle = 8;
            config.dram.power.slowExitIdle = 16;
            config.dram.power.selfRefreshIdle = 24;
            config.dram.power.exitFast = 1'000;
            config.dram.power.exitSlow = 2'000;
            config.dram.power.exitSelfRefresh = 3'000;
        }
        SmtSystem system(config, mixProfiles("2-MEM"), 42);
        return system.run(5000, 2000);
    };
    const RunResult plain = run(false);
    RunResult mutated = run(true);

    // The meter itself is not inert — hotter currents mean more
    // metered nanojoules for the identical command stream.
    EXPECT_GT(plain.power.totalEnergy, 0.0);
    EXPECT_GT(mutated.power.totalEnergy, plain.power.totalEnergy);
    EXPECT_EQ(mutated.power.powerdownEntries, 0u);
    // Everything else is the same run.
    mutated.power = plain.power;
    EXPECT_EQ(plain, mutated);
}

TEST(Observability, ExportsSchemaVersionedStatsAndEpochCsv)
{
    TempPaths tmp;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.statsJsonPath = tmp.json;
    config.observe.statsCsvPath = tmp.csv;
    config.observe.epoch = 1'000;
    SmtSystem system(config, mixProfiles("2-MEM"), 42);
    const RunResult r = system.run(5000, 2000);

    const std::string doc = slurp(tmp.json);
    ASSERT_FALSE(doc.empty());
    EXPECT_NE(doc.find("\"schema\":\"smtdram-stats\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"version\":3"), std::string::npos);
    EXPECT_NE(doc.find(
                  "\"config\":\"2C-1G-xor-open-Hit-first-l3real-pf0\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.reads\":"), std::string::npos);
    EXPECT_NE(doc.find("\"dram.read_latency\":"), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t1.committed\":"), std::string::npos);
    // v2 additions: blame attribution, interference matrix, per-thread
    // CPI stack, trace-drop visibility.
    EXPECT_NE(doc.find("\"dram.blame.queueing_cycles\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.blame.intrinsic\":"), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t0.blame.intrinsic_cycles\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"dram.interference.t0.t1\":"),
              std::string::npos);
    EXPECT_NE(doc.find("\"trace.dropped_events\":"),
              std::string::npos);

    // Registry and RunResult agree on the headline counter.
    ASSERT_NE(system.statsRegistry(), nullptr);
    EXPECT_DOUBLE_EQ(system.statsRegistry()->value("dram.reads"),
                     static_cast<double>(r.dram.reads));

    // The CSV time series has a header plus at least one epoch row
    // and the final row.
    std::istringstream csv(slurp(tmp.csv));
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line.rfind("cycle,", 0), 0u);
    size_t rows = 0;
    while (std::getline(csv, line))
        ++rows;
    EXPECT_GE(rows, 2u);
}

/**
 * Every DRAM request span begins once and ends at most once, on the
 * paper's machine and on a two-socket machine with interleaved homes,
 * whose sockets serve requests side by side: request ids are unique
 * per machine, not per socket.
 */
TEST(Observability, TraceLifecyclesConserve)
{
    SystemConfig two_socket = SystemConfig::paperDefault(4);
    two_socket.topology.enabled = true;
    two_socket.topology.sockets = 2;
    two_socket.topology.smtWays = 2;
    two_socket.topology.placement = PlacementPolicy::RoundRobin;
    two_socket.topology.home = HomePolicy::Interleave;
    const std::pair<SystemConfig, const char *> machines[] = {
        {SystemConfig::paperDefault(2), "2-MEM"},
        {two_socket, "4-MEM"},
    };
    for (const auto &[machine, mix] : machines) {
        SCOPED_TRACE(mix);
        TempPaths tmp;
        SystemConfig config = machine;
        config.observe.tracePath = tmp.trace;
        SmtSystem system(config, mixProfiles(mix), 42);
        system.run(5000, 2000);

        const std::string doc = slurp(tmp.trace);
        ASSERT_FALSE(doc.empty());

        // Line-based scan: each event is one line; spans are keyed by
        // the request id.  Every terminal event must match exactly one
        // open; opens without a terminal are only the requests still
        // in flight when the run ended.
        std::map<std::string, int> begins, ends;
        std::uint64_t prev_ts = 0;
        bool monotonic = true;
        std::istringstream ss(doc);
        std::string line;
        size_t events = 0;
        while (std::getline(ss, line)) {
            const size_t ph = line.find("\"ph\":\"");
            if (ph == std::string::npos)
                continue;
            ++events;
            const char kind = line[ph + 6];
            const size_t ts_at = line.find("\"ts\":");
            if (ts_at != std::string::npos) {
                const std::uint64_t ts = std::strtoull(
                    line.c_str() + ts_at + 5, nullptr, 10);
                monotonic = monotonic && ts >= prev_ts;
                prev_ts = ts;
            }
            // Only DRAM request spans have once-per-id lifecycles; CPU
            // fetch-stall spans reuse the thread id across windows.
            if (line.find("\"cat\":\"dram\"") == std::string::npos)
                continue;
            const size_t id_at = line.find("\"id\":\"");
            if (id_at == std::string::npos)
                continue;
            const size_t id_end = line.find('"', id_at + 6);
            const std::string id =
                line.substr(id_at + 6, id_end - id_at - 6);
            if (kind == 'b')
                ++begins[id];
            else if (kind == 'e')
                ++ends[id];
        }
        ASSERT_GT(events, 0u);
        EXPECT_TRUE(monotonic);
        ASSERT_FALSE(begins.empty());

        size_t reused = 0, unterminated = 0;
        for (const auto &[id, n] : begins) {
            reused += n != 1;
            unterminated += ends.count(id) == 0;
        }
        EXPECT_EQ(reused, 0u) << "request ids begun more than once";
        for (const auto &[id, n] : ends) {
            EXPECT_EQ(n, 1) << "duplicate terminal event for id " << id;
            EXPECT_EQ(begins.count(id), 1u)
                << "terminal event without open for id " << id;
        }
        // In-flight DRAM requests at run-end may legitimately stay
        // open; anything more than a handful means lost terminal
        // events.
        EXPECT_LE(unterminated, 64u);
    }
}

/**
 * On a multi-socket machine every core holds a slot for every thread
 * but runs only the threads bound to it, and all cores key their
 * fetch-stall spans by thread id.  Only the core a thread is bound to
 * may trace it, and parking the thread for a migration must close its
 * open span, so each id's spans alternate begin, end, begin, ...
 * Runs Figure 14's traced cell (n4-MEM, migrate placement) under both
 * kernels.
 */
TEST(Observability, MultiSocketFetchStallSpansAlternate)
{
    for (const KernelMode kernel :
         {KernelMode::PerCycle, KernelMode::EventDriven}) {
        TempPaths tmp;
        SystemConfig config = SystemConfig::paperDefault(4);
        config.kernel = kernel;
        config.topology.enabled = true;
        config.topology.sockets = 2;
        config.topology.smtWays = 2;
        config.topology.home = HomePolicy::Loader;
        config.topology.placement = PlacementPolicy::Migrate;
        config.topology.migrationEpoch = 5'000;
        config.observe.tracePath = tmp.trace;
        std::vector<AppProfile> apps;
        for (const char *app : {"mcf", "ammp", "equake", "swim"})
            apps.push_back(specProfile(app));
        SmtSystem system(config, apps, 42);
        system.run(4000, 2000);
        // Not vacuous: a thread was parked and moved while measured.
        EXPECT_GT(system.router().stats().migrations, 0u);

        const std::string doc = slurp(tmp.trace);
        std::map<std::string, char> last;  // id -> last phase seen
        std::istringstream ss(doc);
        std::string line;
        size_t spans = 0;
        while (std::getline(ss, line)) {
            if (line.find("\"name\":\"fetch-stall\"") == std::string::npos)
                continue;
            const size_t ph = line.find("\"ph\":\"");
            const size_t id_at = line.find("\"id\":\"");
            ASSERT_NE(ph, std::string::npos);
            ASSERT_NE(id_at, std::string::npos);
            const char kind = line[ph + 6];
            const std::string id = line.substr(
                id_at + 6, line.find('"', id_at + 6) - id_at - 6);
            const char prev = last.count(id) ? last[id] : 'e';
            EXPECT_NE(kind, prev)
                << "fetch-stall id " << id << " has two '" << kind
                << "' events in a row (kernel "
                << (kernel == KernelMode::PerCycle ? "cycle" : "event")
                << "): " << line;
            last[id] = kind;
            spans += kind == 'b';
        }
        EXPECT_GT(spans, 0u);
    }
}

TEST(Observability, BaselineRunsDoNotClobberMixArtifacts)
{
    // A mix job runs the mix first, then the per-app alone
    // baselines for the weighted speedup.  The artifacts on disk
    // afterwards must describe the 2-thread mix, not a 1-thread
    // baseline.
    TempPaths tmp;
    SystemConfig config = SystemConfig::paperDefault(2);
    config.observe.statsJsonPath = tmp.json;
    ParallelExperimentRunner runner({3000, 1000, 42}, 1);
    const std::size_t id = runner.submitMix(config, mixByName("2-MEM"));
    runner.run();
    EXPECT_GT(runner.mixResult(id).weightedSpeedup, 0.0);

    const std::string doc = slurp(tmp.json);
    ASSERT_FALSE(doc.empty());
    EXPECT_NE(doc.find("\"threads\":\"2\""), std::string::npos);
    EXPECT_NE(doc.find("\"cpu.t1.committed\":"), std::string::npos);
}

TEST(Observability, MixRunCarriesLatencyPercentiles)
{
    ParallelExperimentRunner runner({3000, 1000, 42}, 1);
    const std::size_t id = runner.submitMix(SystemConfig::paperDefault(2),
                                            mixByName("2-MEM"));
    runner.run();
    const LogHistogram &latency =
        runner.mixResult(id).run.dram.readLatencyHist;
    EXPECT_GT(latency.p50(), 0.0);
    EXPECT_GE(latency.p99(), latency.p50());
}

} // namespace
} // namespace smtdram
