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
 * figure takes (budgets, seed, --mixes, observability, --jobs,
 * --bench-json).  planSweep() applies each honoured group to
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
};

/** CPI split per the Section 4.2 methodology. */
struct CpiBreakdown {
    double overall = 0.0;  ///< real machine
    double proc = 0.0;     ///< infinite L1s
    double l2 = 0.0;       ///< infinite L2 minus infinite L1
    double l3 = 0.0;       ///< infinite L3 minus infinite L2
    double mem = 0.0;      ///< real minus infinite L3
};

/**
 * The CPI breakdown of a Figure 1 row: its app run alone on the four
 * machines of fig1_cpi_breakdown's cells (infinite L1s, L2 and L3,
 * and the real one).
 */
CpiBreakdown cpiBreakdown(const SweepRow &row);

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
    /** Cells every row runs; null for tables. */
    std::vector<Cell> (*cells)(const Flags &) = nullptr;
    void (*report)(const Sweep &, const Flags &) = nullptr;
    std::optional<GoldenWindow> golden{};

    /** Tables print from the configuration alone and take no flags. */
    bool simulates() const { return cells != nullptr; }
};

/** Every table and figure, in paper order. */
const std::vector<FigureSpec> &figureSpecs();

/** The spec called @p name, or null. */
const FigureSpec *findFigure(const std::string &name);

/**
 * The rowhammer model's own flags (--hammer-seed, --hammer-flip-prob,
 * --hammer-blast, --hammer-tracker-capacity), part of kHammerFlags;
 * a figure that sweeps the threshold and mitigation itself declares
 * only these.
 */
void declareHammerModelFlags(Flags &flags);

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
 * Every row with its cell configurations, flag groups applied; a cell
 * whose DRAM or topology fails validate() is fatal here.  Only
 * the last cell of the last row carries the --trace/--stats-* paths,
 * so the files come from one run whatever the worker count.
 * @p keep, when non-empty, drops the cells whose label it omits.
 */
std::vector<SweepRow> planSweep(const FigureSpec &spec,
                                const Flags &flags,
                                const std::vector<std::string> &keep = {});

/**
 * Plan and run @p spec's sweep on @p jobs workers.  Results, and the
 * observability files its last job writes, are byte-identical for
 * every jobs value (see ParallelExperimentRunner).
 */
Sweep runSweep(const FigureSpec &spec, const Flags &flags,
               unsigned jobs,
               const std::vector<std::string> &keep = {});

/**
 * The `smtdram_fig` flow: parse @p args, apply --quiet, read every
 * flag and plan the sweep, print the banner, run the sweep (serial
 * then parallel under --bench-json) and print the report.  A bad flag
 * value dies before anything reaches stdout.  Returns the exit code.
 */
int runFigure(const FigureSpec &spec,
              const std::vector<std::string> &args);

} // namespace smtdram

#endif // SMTDRAM_SIM_FIGURE_SPEC_HH
