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
 * The FigureSpecs tests check the table itself: every flag group a
 * figure honours reaches every cell it runs, --mixes resolves a
 * figure's own mixes, and figures whose rows come from other flags
 * reject --mixes instead of ignoring it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/figure_spec.hh"

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

// --- The figure table itself -------------------------------------------

/** One flag of a group and how it shows in a cell's config. */
struct GroupProbe {
    /** FlagGroup bit; 0 for the flags every figure takes. */
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
    {0, "--stats-json=stats.json",
     [](const SystemConfig &c) {
         return c.observe.statsJsonPath == "stats.json";
     }},
};

TEST(FigureSpecs, SharedFlagsReachEveryCell)
{
    for (const FigureSpec &spec : figureSpecs()) {
        if (!spec.cells)
            continue;
        for (const GroupProbe &probe : kProbes) {
            if (probe.group != 0 && !(spec.groups & probe.group))
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

} // namespace
} // namespace smtdram
