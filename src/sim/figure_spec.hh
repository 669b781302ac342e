/**
 * @file
 * Figures as data.  Every reproduced table and figure is one
 * FigureSpec: its banner and paper claim, the workloads it runs
 * (rows), the machine configurations each row runs (cells), the
 * shared flag groups applied to every cell, a reduced golden window,
 * and a report that prints the figure's tables.
 *
 * `smtdram_fig <figure> [flags]` runs any spec through runFigure();
 * the golden suite runs each spec's golden window through the same
 * runSweep(), so a snapshot pins exactly what the figure runs.
 */

#ifndef SMTDRAM_SIM_FIGURE_SPEC_HH
#define SMTDRAM_SIM_FIGURE_SPEC_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "sim/experiment.hh"

namespace smtdram
{

/**
 * Flag groups a figure may honour beyond the flags every simulating
 * figure takes (budgets, seed, --mixes, --kernel, observability,
 * --jobs, --bench-json).  planSweep() applies each honoured group to
 * every cell after the cell's own configuration.  All default off.
 */
enum FlagGroup : unsigned {
    kPowerFlags = 1u << 0,       ///< --power*
    kHammerFlags = 1u << 1,      ///< --hammer*
    kRobustnessFlags = 1u << 2,  ///< --faults, --refresh, --checker, --ecc
};

/** One machine configuration every row runs. */
struct Cell {
    /** Column name; also the cell's key in golden windows. */
    std::string label{};
    /** Applied to SystemConfig::paperDefault(threads). */
    std::function<void(SystemConfig &)> configure{};
    /** Weighted speedup against single-thread IPCs on this same
     *  configuration instead of the reference machine. */
    bool perConfigBaselines = false;
};

/** A cell built for one row, with the flag groups applied. */
struct PlannedCell {
    std::string label;
    SystemConfig config;
    bool perConfigBaselines = false;
};

/** One workload of a sweep: its cells and, once run, their results. */
struct SweepRow {
    WorkloadMix mix;
    std::vector<PlannedCell> cells;
    std::vector<MixRun> runs;
    /** CPI-breakdown figures only: the row's app run alone. */
    CpiBreakdown cpi;
};

struct Sweep {
    std::vector<SweepRow> rows;
    /** Jobs run plus distinct alone-IPC baselines (--bench-json). */
    std::size_t simulations = 0;
};

/** The reduced-budget slice of a figure the golden suite pins. */
struct GoldenWindow {
    /** gtest name under the GoldenFigures suite. */
    std::string test{};
    /** Snapshot stem: tests/golden/data/<file>.golden. */
    std::string file{};
    /** Figure flags selecting the window. */
    std::vector<std::string> args{};
    /** Cell labels kept (empty: every cell). */
    std::vector<std::string> cells{};
    /** The window's metrics as "name value" lines. */
    std::string (*render)(const Sweep &) = nullptr;
    /** Optional: the claims the window violates, one per line. */
    std::string (*check)(const Sweep &) = nullptr;
};

/** One reproduced table or figure. */
struct FigureSpec {
    /** Command-line name, e.g. "fig10_thread_aware". */
    std::string name{};
    /** Banner "== <figure>: <what> ==" ("{mix}" names the first row),
     *  then "paper: <claim>" unless the claim is empty. */
    std::string figure{};
    std::string what{};
    std::string claim{};
    /** Rows run when --mixes is not given. */
    std::vector<std::string> defaultRows{};
    /** Mixes beyond Table 2 that --mixes also resolves. */
    std::vector<WorkloadMix> localMixes{};
    /** FlagGroup bits applied to every cell. */
    unsigned groups = 0;
    /** Optional figure-local flags. */
    void (*declare)(Flags &) = nullptr;
    /** Optional rows from figure-local flags, replacing --mixes. */
    std::vector<WorkloadMix> (*rows)(const Flags &) = nullptr;
    /** Cells every row runs; null for tables and CPI breakdowns. */
    std::vector<Cell> (*cells)(const Flags &) = nullptr;
    /** Rows run the Figure 1 CPI breakdown of their one app. */
    bool cpiBreakdown = false;
    void (*report)(const Sweep &, const Flags &) = nullptr;
    std::optional<GoldenWindow> golden{};

    /** Tables print from the configuration alone and take no flags. */
    bool simulates() const { return cells != nullptr || cpiBreakdown; }
};

/** Every table and figure, in paper order. */
const std::vector<FigureSpec> &figureSpecs();

/** The spec called @p name, or null. */
const FigureSpec *findFigure(const std::string &name);

void declareFlagGroups(Flags &flags, unsigned groups);

/**
 * Declare every flag @p spec takes and parse @p args (no program
 * name).  fatal()s on an unknown flag; --help lists them and exits.
 */
Flags figureFlags(const FigureSpec &spec,
                  const std::vector<std::string> &args);

/** The workloads @p spec runs under @p flags. */
std::vector<WorkloadMix> figureRows(const FigureSpec &spec,
                                    const Flags &flags);

/**
 * Every row with its cell configurations, flag groups applied.
 * @p keep, when non-empty, drops the cells whose label it omits.
 */
std::vector<SweepRow> planSweep(const FigureSpec &spec,
                                const Flags &flags,
                                const std::vector<std::string> &keep = {});

/**
 * Plan and run @p spec's sweep on @p jobs workers.  Results are
 * byte-identical for every jobs value (see ParallelExperimentRunner).
 */
Sweep runSweep(const FigureSpec &spec, const Flags &flags,
               unsigned jobs,
               const std::vector<std::string> &keep = {});

/**
 * The `smtdram_fig` flow: parse @p args, apply --kernel and --quiet,
 * print the banner, run the sweep (serial then parallel under
 * --bench-json) and print the report.  Returns the exit code.
 */
int runFigure(const FigureSpec &spec,
              const std::vector<std::string> &args);

} // namespace smtdram

#endif // SMTDRAM_SIM_FIGURE_SPEC_HH
