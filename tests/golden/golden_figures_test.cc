/**
 * @file
 * Golden-figure regression harness: every figure spec with a golden
 * window runs that window at a reduced instruction budget through the
 * same runSweep() smtdram_fig uses (serially), renders its key metrics to a
 * canonical text block, and must match a committed `.golden` file
 * byte for byte.  The window lives in the spec (src/sim/
 * figure_table.cc), so a snapshot pins exactly what the figure runs.
 *
 * The simulator is deterministic, so any diff is a real behavior
 * change.  When a change is intentional, regenerate the snapshots
 * with
 *
 *     SMTDRAM_UPDATE_GOLDENS=1 ctest -R Golden
 *
 * and commit the updated files together with the change that caused
 * them.  All windows run with ECC disabled: the snapshots double as
 * the proof that the ECC layer is invisible when off.
 *
 * The GoldenStats tests pin the exported stats document itself (JSON
 * and CSV, byte for byte) for one single-socket and one two-socket
 * run, under the same regeneration rule.
 *
 * The FigureSpecs tests check the table itself: every flag group a
 * figure honours reaches every cell it runs, the observability files
 * come from one run whatever --jobs is, --mixes resolves a figure's
 * own mixes, and figures reject flags they would ignore.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/figure_spec.hh"
#include "temp_path.hh"

namespace smtdram
{
namespace
{

/** Reduced budgets: big enough to exercise every scheduler/mapping
 *  path, small enough that the whole suite runs in seconds. */
const std::vector<std::string> kBudget = {"--insts=2500", "--warmup=1000",
                                          "--seed=42"};

/** Compare @p text with the committed snapshot (or regenerate it). */
void
checkGolden(const std::string &name, const std::string &text)
{
    const std::string path =
        std::string(SMTDRAM_GOLDEN_DIR) + "/" + name + ".golden";
    if (std::getenv("SMTDRAM_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with SMTDRAM_UPDATE_GOLDENS=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), text)
        << "metrics diverge from " << path
        << "; if the change is intentional, regenerate with "
           "SMTDRAM_UPDATE_GOLDENS=1 and commit the new snapshot";
}

/** One spec's golden window, registered as GoldenFigures.<test>. */
class GoldenFigure : public ::testing::Test
{
  public:
    explicit GoldenFigure(const FigureSpec &spec) : spec_(spec) {}

    void
    TestBody() override
    {
        const GoldenWindow &window = *spec_.golden;
        std::vector<std::string> args = kBudget;
        args.insert(args.end(), window.args.begin(), window.args.end());
        const Sweep sweep =
            runSweep(spec_, figureFlags(spec_, args), /*jobs=*/1,
                     window.cells);
        checkGolden(window.file, window.render(sweep));
        if (window.check) {
            EXPECT_EQ(window.check(sweep), "");
        }
    }

  private:
    const FigureSpec &spec_;
};

[[maybe_unused]] const bool kRegistered = [] {
    for (const FigureSpec &spec : figureSpecs()) {
        if (!spec.golden)
            continue;
        ::testing::RegisterTest(
            "GoldenFigures", spec.golden->test.c_str(), nullptr, nullptr,
            __FILE__, __LINE__,
            [&spec]() -> ::testing::Test * {
                return new GoldenFigure(spec);
            });
    }
    return true;
}();

// --- The stats document ------------------------------------------------

/**
 * Run one cell of @p figure with @p args and pin the stats JSON and
 * CSV it exports, as <stem>.json.golden and <stem>.csv.golden.  The
 * names, their order and every value are part of the snapshot.
 */
void
checkStatsGolden(const std::string &stem, const char *figure,
                 std::vector<std::string> args, const std::string &cell)
{
    const FigureSpec &spec = *findFigure(figure);
    const std::string path = testArtifactPath(stem);
    args.push_back("--stats-json=" + path + ".json");
    args.push_back("--stats-csv=" + path + ".csv");
    runSweep(spec, figureFlags(spec, args), /*jobs=*/1, {cell});
    for (const char *ext : {".json", ".csv"}) {
        std::ifstream in(path + ext);
        std::ostringstream text;
        text << in.rdbuf();
        std::remove((path + ext).c_str());
        checkGolden(stem + ext, text.str());
    }
}

TEST(GoldenStats, SingleSocketDocument)
{
    // One socket with refresh, ECC scrub, the power state machine and
    // rowhammer mitigation on.
    checkStatsGolden("stats_single_socket", "fig13_blame",
                     {"--insts=2000", "--warmup=1000", "--seed=42",
                      "--mixes=2-MEM", "--refresh", "--ecc", "--power",
                      "--hammer", "--hammer-mitigate", "--epoch=3000"},
                     "Criticality");
}

TEST(GoldenStats, NumaMigrateDocument)
{
    // Two sockets: the meta sockets/cores keys and the numa.* block,
    // with remote reads, link queueing and two migrations.
    checkStatsGolden("stats_numa_migrate", "fig14_numa",
                     {"--insts=2000", "--warmup=1000", "--seed=42",
                      "--mixes=n4-MEM", "--placement=migrate",
                      "--epoch=12000"},
                     "migrate");
}

// --- The figure table itself -------------------------------------------

/** One flag of a group and how it shows in a cell's config. */
struct GroupProbe {
    /** FlagGroup bit. */
    unsigned group;
    const char *flag;
    bool (*reached)(const SystemConfig &);
};

const GroupProbe kProbes[] = {
    {kPowerFlags, "--power",
     [](const SystemConfig &c) { return c.dram.power.enabled; }},
    {kHammerFlags, "--hammer",
     [](const SystemConfig &c) { return c.dram.hammer.active(); }},
    {kRobustnessFlags, "--refresh",
     [](const SystemConfig &c) { return c.dram.refreshEnabled(); }},
};

TEST(FigureSpecs, SharedFlagsReachEveryCell)
{
    for (const FigureSpec &spec : figureSpecs()) {
        if (!spec.cells)
            continue;
        for (const GroupProbe &probe : kProbes) {
            if (!(spec.groups & probe.group))
                continue;
            const std::vector<SweepRow> rows =
                planSweep(spec, figureFlags(spec, {probe.flag}));
            ASSERT_FALSE(rows.empty()) << spec.name;
            for (const SweepRow &row : rows) {
                ASSERT_FALSE(row.cells.empty()) << spec.name;
                for (const PlannedCell &cell : row.cells) {
                    EXPECT_TRUE(probe.reached(cell.config))
                        << spec.name << " " << probe.flag << " missed "
                        << row.mix.name << "." << cell.label;
                }
            }
        }

        // The observability paths reach exactly one cell: the last
        // one planned, the run a serial sweep finishes with.
        const std::vector<SweepRow> rows = planSweep(
            spec, figureFlags(spec, {"--stats-json=stats.json"}));
        ASSERT_FALSE(rows.empty()) << spec.name;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            for (std::size_t c = 0; c < rows[r].cells.size(); ++c) {
                const bool last = r + 1 == rows.size() &&
                                  c + 1 == rows[r].cells.size();
                EXPECT_EQ(rows[r].cells[c].config.observe.statsJsonPath,
                          last ? "stats.json" : "")
                    << spec.name << " " << rows[r].mix.name << "."
                    << rows[r].cells[c].label;
            }
        }
    }
}

TEST(FigureSpecs, ObservabilityFilesDoNotDependOnJobs)
{
    // Every cell would write the same paths, concurrently under
    // --jobs > 1; one designated run writes them instead, so a
    // parallel sweep leaves the serial sweep's files.  fig1 covers
    // one-thread cells that are their own baselines, fig10 mixes that
    // share memoized baselines.
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"fig1_cpi_breakdown", "--apps=mcf,gzip"},
        {"fig10_thread_aware", "--mixes=2-MEM,2-MIX"},
    };
    const char *kinds[] = {"trace.json", "stats.json", "stats.csv"};
    for (const auto &[name, rows] : cases) {
        const FigureSpec &spec = *findFigure(name);
        std::string files[2][3];
        for (int serial = 0; serial < 2; ++serial) {
            std::string paths[3];
            for (int k = 0; k < 3; ++k) {
                paths[k] = testArtifactPath(std::string(name) + "." +
                                            kinds[k]);
            }
            const Flags flags = figureFlags(
                spec, {"--insts=1000", "--warmup=500", rows,
                       "--epoch=500", "--trace=" + paths[0],
                       "--stats-json=" + paths[1],
                       "--stats-csv=" + paths[2]});
            runSweep(spec, flags, serial ? 1 : 4);
            for (int k = 0; k < 3; ++k) {
                std::ifstream in(paths[k]);
                std::ostringstream ss;
                ss << in.rdbuf();
                files[serial][k] = ss.str();
                std::remove(paths[k].c_str());
            }
        }
        for (int k = 0; k < 3; ++k) {
            EXPECT_FALSE(files[1][k].empty()) << name << " " << kinds[k];
            EXPECT_EQ(files[0][k], files[1][k]) << name << " " << kinds[k];
        }
    }
}

TEST(FigureSpecs, MixesResolveFigureLocalNames)
{
    const FigureSpec &fig14 = *findFigure("fig14_numa");
    const std::vector<WorkloadMix> rows = figureRows(
        fig14, figureFlags(fig14, {"--mixes=n4-MEM,2-MEM"}));
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "n4-MEM");
    EXPECT_EQ(rows[0].apps, (std::vector<std::string>{"mcf", "ammp",
                                                      "equake", "swim"}));
    EXPECT_EQ(rows[1].name, "2-MEM");
    EXPECT_EQ(rows[1].apps, mixByName("2-MEM").apps);
}

TEST(FigureSpecsDeathTest, RowsFromOtherFlagsRejectMixes)
{
    for (const char *name : {"fig1_cpi_breakdown", "fig12_rowhammer"}) {
        const FigureSpec &spec = *findFigure(name);
        EXPECT_DEATH(figureFlags(spec, {"--mixes=2-MEM"}),
                     "unknown flag --mixes")
            << name;
    }
}

TEST(FigureSpecsDeathTest, RowhammerSweepRejectsTheFlagsItSweeps)
{
    // fig12's cells set the threshold and the mitigation themselves;
    // the hammer flags that would set them are not declared there.
    const FigureSpec &spec = *findFigure("fig12_rowhammer");
    for (const char *flag : {"hammer", "hammer-threshold", "hammer-mitigate",
                             "hammer-mitigate-threshold"}) {
        EXPECT_DEATH(figureFlags(spec, {std::string("--") + flag + "=1"}),
                     std::string("unknown flag --") + flag)
            << flag;
    }
}

} // namespace
} // namespace smtdram
