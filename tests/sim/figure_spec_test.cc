/**
 * @file
 * The `smtdram_fig` flow end to end: bad integer flags and bad cell
 * values die with a fatal() before anything reaches stdout, and
 * fig13's --matrix-csv keeps one column per thread of the widest mix.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/figure_spec.hh"
#include "temp_path.hh"

namespace smtdram
{
namespace
{

/** `smtdram_fig <figure> <args>` in process. */
int
runFig(const std::string &figure, const std::vector<std::string> &args)
{
    const FigureSpec *spec = findFigure(figure);
    if (!spec) {
        ADD_FAILURE() << "no figure " << figure;
        return -1;
    }
    return runFigure(*spec, args);
}

TEST(FigureFlagsDeathTest, NegativeBudgetDies)
{
    // A budget that wrapped to 2^64 - 5 would simulate for ages; the
    // alarm turns that into a failure instead of a hang.
    EXPECT_EXIT(
        {
            alarm(60);
            runFig("fig10_thread_aware",
                   {"--mixes=2-MEM", "--warmup=100", "--insts=-5",
                    "--quiet"});
        },
        testing::ExitedWithCode(1),
        "fatal: flag --insts expects a whole number from 0 to "
        "18446744073709551615, got '-5'");
}

TEST(FigureFlagsDeathTest, ZeroBudgetDies)
{
    // A zero budget measures nothing: every IPC would print -nan.
    for (const char *figure : {"fig10_thread_aware", "fig2_fetch_policies"}) {
        SCOPED_TRACE(figure);
        EXPECT_EXIT(runFig(figure, {"--mixes=2-MEM", "--warmup=100",
                                    "--insts=0", "--quiet"}),
                    testing::ExitedWithCode(1),
                    "fatal: flag --insts must be at least 1");
    }
}

TEST(FigureFlagsDeathTest, NegativeEpochDies)
{
    EXPECT_EXIT(runFig("fig10_thread_aware",
                       {"--mixes=2-MEM", "--warmup=100", "--insts=200",
                        "--epoch=-3", "--quiet"}),
                testing::ExitedWithCode(1),
                "fatal: flag --epoch expects a whole number");
}

TEST(FigureFlagsDeathTest, BadThresholdDies)
{
    for (const char *list : {"abc", "64,99999999999999999999999", "-1"}) {
        SCOPED_TRACE(list);
        EXPECT_EXIT(runFig("fig12_rowhammer",
                           {"--warmup=100", "--insts=200", "--quiet",
                            std::string("--thresholds=") + list}),
                    testing::ExitedWithCode(1),
                    "fatal: flag --thresholds expects a whole number");
    }
}

TEST(FigureFlagsDeathTest, WrappedSocketCountDiesAtParse)
{
    // Planned, never built: a machine of 4294967295 sockets would
    // allocate per-socket tables before anything else could object.
    const FigureSpec &spec = *findFigure("fig14_numa");
    EXPECT_EXIT(planSweep(spec, figureFlags(spec, {"--sockets=-1"})),
                testing::ExitedWithCode(1),
                "fatal: flag --sockets expects a whole number from 0 to "
                "4294967295, got '-1'");
    EXPECT_EXIT(planSweep(spec, figureFlags(spec, {"--sockets=4294967296"})),
                testing::ExitedWithCode(1), "fatal: flag --sockets");
}

TEST(FigureFlagsDeathTest, BadFlagPrintsNothingToStdout)
{
    // Every flag is read, the cells' own included, and every planned
    // cell's DRAM and topology validated, before the banner and the
    // paper claim print.
    struct Case {
        const char *figure;
        std::vector<std::string> args;
        const char *message;
    };
    const std::vector<Case> cases = {
        {"fig10_thread_aware", {"--mixes=2-MEM", "--insts=-5"},
         "fatal: flag --insts expects"},
        {"fig10_thread_aware", {"--mixes=2-MEM", "--jobs=-1"},
         "fatal: flag --jobs expects"},
        {"fig10_thread_aware", {"--mixes=2-MEM", "--epoch=-3"},
         "fatal: flag --epoch expects"},
        {"fig9_mapping_rdram", {"--chips=-1"}, "fatal: flag --chips expects"},
        {"fig12_rowhammer", {"--thresholds=abc"},
         "fatal: flag --thresholds expects"},
        {"fig14_numa", {"--insts=200", "--warmup=100", "--sockets=0"},
         "fatal: topology needs at least one socket"},
        {"fig14_numa", {"--insts=200", "--warmup=100", "--smt-ways=1"},
         "fatal: topology oversubscribed"},
        {"fig12_rowhammer", {"--insts=200", "--warmup=100", "--thresholds=0"},
         "fatal: a hammer threshold of 0"},
        {"fig10_thread_aware",
         {"--mixes=2-MEM", "--insts=200", "--warmup=100", "--ecc",
          "--scrub-interval=0"},
         "fatal: ECC is enabled but the patrol-scrub interval is 0"},
    };
    for (const Case &c : cases) {
        std::string command = c.figure;
        for (const std::string &arg : c.args)
            command += " " + arg;
        SCOPED_TRACE(command);
        const std::string out = testArtifactPath("stdout.txt");
        std::remove(out.c_str());
        EXPECT_EXIT(
            {
                alarm(60);
                if (!std::freopen(out.c_str(), "w", stdout))
                    std::abort();
                runFig(c.figure, c.args);
            },
            testing::ExitedWithCode(1), c.message);
        std::ifstream in(out);
        ASSERT_TRUE(in.good()) << "the child never opened " << out;
        std::stringstream printed;
        printed << in.rdbuf();
        std::remove(out.c_str());
        EXPECT_EQ(printed.str(), "");
    }
}

/** The CSV's cells, one vector per line. */
std::vector<std::vector<std::string>>
readCsv(const std::string &path)
{
    std::vector<std::vector<std::string>> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, ','))
            cells.push_back(cell);
        rows.push_back(cells);
    }
    return rows;
}

TEST(Fig13MatrixCsv, EveryThreadColumnSumsToTotal)
{
    const std::string path = testArtifactPath("matrix.csv");
    ASSERT_EQ(runFig("fig13_blame",
                     {"--mixes=8-MEM", "--insts=1500", "--warmup=500",
                      "--quiet", "--jobs=2", "--matrix-csv=" + path}),
              0);
    const auto csv = readCsv(path);
    std::remove(path.c_str());
    ASSERT_FALSE(csv.empty());

    // mix,scheduler,blocked_thread,system,t0..t7,total
    std::vector<std::string> header = {"mix", "scheduler",
                                       "blocked_thread", "system"};
    for (int j = 0; j < 8; ++j)
        header.push_back("t" + std::to_string(j));
    header.push_back("total");
    ASSERT_EQ(csv[0], header);

    // One row per scheduler and blocked thread.
    ASSERT_EQ(csv.size(), 1u + 7u * 8u);
    bool upper_columns_used = false;
    for (std::size_t r = 1; r < csv.size(); ++r) {
        ASSERT_EQ(csv[r].size(), header.size()) << "row " << r;
        std::uint64_t sum = 0;
        for (std::size_t c = 3; c + 1 < header.size(); ++c) {
            const std::uint64_t v = std::stoull(csv[r][c]);
            sum += v;
            upper_columns_used = upper_columns_used || (c >= 8 && v > 0);
        }
        EXPECT_EQ(sum, std::stoull(csv[r].back()))
            << csv[r][1] << " blocked thread " << csv[r][2];
    }
    // Threads 4..7 do stall the others on this mix.
    EXPECT_TRUE(upper_columns_used);
}

} // namespace
} // namespace smtdram
