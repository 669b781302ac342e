/**
 * @file
 * The figure table: one FigureSpec per reproduced table and figure,
 * with the cells its rows run, the report that prints its tables and
 * the golden window the golden suite pins.
 */

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "cpu/fetch_policy.hh"
#include "sim/figure_spec.hh"
#include "topology/topology_config.hh"
#include "workload/hammer_workload.hh"

namespace smtdram
{

namespace
{

// --- Reports ----------------------------------------------------------

/** Row-major results table printed with workloads as rows. */
class ResultTable
{
  public:
    explicit ResultTable(std::vector<std::string> column_names)
        : columns_(std::move(column_names))
    {
    }

    void
    addRow(const std::string &name, std::vector<double> values)
    {
        rows_.push_back({name, std::move(values)});
    }

    /** Print with a printf format for each value, e.g. "%8.3f". */
    void
    print(const char *value_fmt = "%10.3f") const
    {
        std::printf("%-10s", "workload");
        for (const auto &c : columns_)
            std::printf("  %13s", c.c_str());
        std::printf("\n");
        for (const auto &row : rows_) {
            std::printf("%-10s", row.name.c_str());
            for (double v : row.values) {
                char cell[64];
                std::snprintf(cell, sizeof(cell), value_fmt, v);
                std::printf("  %13s", cell);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }

  private:
    struct Row {
        std::string name;
        std::vector<double> values;
    };

    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

std::vector<std::string>
labels(const SweepRow &row)
{
    std::vector<std::string> out;
    for (const PlannedCell &cell : row.cells)
        out.push_back(cell.label);
    return out;
}

std::vector<double>
weightedSpeedups(const SweepRow &row)
{
    std::vector<double> ws;
    for (const MixRun &r : row.runs)
        ws.push_back(r.weightedSpeedup);
    return ws;
}

void
reportWeightedSpeedups(const Sweep &sweep, const Flags &)
{
    ResultTable table(labels(sweep.rows.front()));
    for (const SweepRow &row : sweep.rows)
        table.addRow(row.mix.name, weightedSpeedups(row));
    table.print();
}

void
reportNormalizedToFirst(const Sweep &sweep, const Flags &)
{
    ResultTable table(labels(sweep.rows.front()));
    for (const SweepRow &row : sweep.rows) {
        std::vector<double> ws = weightedSpeedups(row);
        const double base = ws[0];
        for (double &v : ws)
            v /= base;
        table.addRow(row.mix.name, ws);
    }
    table.print();
}

/** A per-run metric printed as one table per metric. */
struct MetricTable {
    const char *title;
    const char *format;
    /** Metric name in golden snapshots (null: not pinned on its own). */
    const char *golden;
    double (*metric)(const MixRun &);
};

/**
 * Cells labelled "<group>.<scheduler>" in allSchedulerKinds() order,
 * printed with one row per group and one column per scheduler.
 */
void
reportSchedulerGroups(const Sweep &sweep, const MetricTable &table,
                      bool prefix_mix,
                      void (*normalize)(std::vector<double> &) = nullptr)
{
    std::vector<std::string> columns;
    for (SchedulerKind s : allSchedulerKinds())
        columns.push_back(schedulerName(s));
    ResultTable out(columns);
    for (const SweepRow &row : sweep.rows) {
        for (std::size_t first = 0; first < row.runs.size();
             first += columns.size()) {
            const std::string &label = row.cells[first].label;
            const std::string group = label.substr(0, label.find('.'));
            std::vector<double> values;
            for (std::size_t c = first; c < first + columns.size(); ++c)
                values.push_back(table.metric(row.runs[c]));
            if (normalize)
                normalize(values);
            out.addRow(prefix_mix ? row.mix.name + "@" + group : group,
                       values);
        }
    }
    std::printf("-- %s --\n", table.title);
    out.print(table.format);
}

// --- Golden rendering -------------------------------------------------

void
appendMetric(std::string &out, const std::string &name, double value)
{
    char line[128];
    std::snprintf(line, sizeof(line), "%s %.6f\n", name.c_str(), value);
    out += line;
}

/** One run's weighted speedup, IPCs, row-hit rate and queueing. */
void
appendRun(std::string &out, const std::string &label, const MixRun &r)
{
    appendMetric(out, label + ".weighted_speedup", r.weightedSpeedup);
    for (size_t i = 0; i < r.run.ipc.size(); ++i)
        appendMetric(out, label + ".ipc" + std::to_string(i), r.run.ipc[i]);
    appendMetric(out, label + ".row_hit_rate", 1.0 - r.run.dram.rowMissRate());
    appendMetric(out, label + ".read_queueing_mean",
                 r.run.dram.readQueueing.mean());
}

using RunMetrics = void (*)(std::string &out, const std::string &label,
                            const MixRun &r);

/** @p metrics of every cell, labelled "<mix>.<cell>". */
std::string
renderEach(const Sweep &sweep, RunMetrics metrics)
{
    std::string text;
    for (const SweepRow &row : sweep.rows) {
        for (std::size_t c = 0; c < row.runs.size(); ++c)
            metrics(text, row.mix.name + "." + row.cells[c].label,
                    row.runs[c]);
    }
    return text;
}

std::string
renderRuns(const Sweep &sweep)
{
    return renderEach(sweep, appendRun);
}

// --- Shared cells -----------------------------------------------------

std::vector<std::string>
allMixNames()
{
    std::vector<std::string> names;
    for (const WorkloadMix &m : table2Mixes())
        names.push_back(m.name);
    return names;
}

/** The MEM and MIX mixes (memory-sensitive figures skip ILP). */
std::vector<std::string>
memAndMixNames()
{
    return {"2-MIX", "2-MEM", "4-MIX", "4-MEM", "8-MIX", "8-MEM"};
}

/** DDR SDRAM with @p channels, keeping the paper's mapping scheme. */
void
setDdrChannels(SystemConfig &c, std::uint32_t channels,
               std::uint32_t gang = 1)
{
    const MappingScheme mapping = c.dram.mapping;
    c.dram = DramConfig::ddrSdram(channels, gang);
    c.dram.mapping = mapping;
}

std::vector<Cell>
schedulerCells(const std::vector<SchedulerKind> &kinds)
{
    std::vector<Cell> cells;
    for (SchedulerKind s : kinds)
        cells.push_back({schedulerName(s),
                         [s](SystemConfig &c) { c.scheduler = s; }});
    return cells;
}

// --- Table 1, straight from the live configuration structs so it can
//     never drift from what the code simulates -------------------------

void
paramRow(const char *name, const char *fmt, ...)
{
    std::printf("  %-28s", name);
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::printf("\n");
}

void
reportTable1(const Sweep &, const Flags &)
{
    const SystemConfig c = SystemConfig::paperDefault(8);
    const CoreConfig &core = c.core;
    const HierarchyConfig &h = c.hierarchy;
    const DramConfig &d = c.dram;

    paramRow("Processor speed", "%.0f GHz", d.timing.cpuMhz / 1000.0);
    paramRow("Fetch width", "%u instructions (up to %u threads)",
             core.fetchWidth, core.fetchThreadsPerCycle);
    paramRow("Baseline fetch policy", "DWarn.%u.%u",
             core.fetchThreadsPerCycle, core.fetchWidth);
    paramRow("Pipeline depth", "%u (front end %u + execute/commit)",
             core.decodeStages + 6, core.decodeStages);
    paramRow("Functional units",
             "%u IntALU, %u IntMult, %u FPALU, %u FPMult",
             core.intAluUnits, core.intMultUnits, core.fpAluUnits,
             core.fpMultUnits);
    paramRow("Issue width", "%u Int, %u FP", core.intIssueWidth,
             core.fpIssueWidth);
    paramRow("Issue queue size", "%u Int, %u FP", core.intIqSize,
             core.fpIqSize);
    paramRow("Reorder buffer size", "%u/thread", core.robPerThread);
    paramRow("Physical register num", "%u Int, %u FP", core.intRegs,
             core.fpRegs);
    paramRow("Load/store queue size", "%u LQ, %u SQ", core.lqSize,
             core.sqSize);
    paramRow("Branch predictor", "hybrid, 4K global + 1K local "
             "(32-entry RAS/thread)");
    paramRow("Branch target buffer", "1K-entry, 4-way");
    paramRow("Branch mispredict penalty", "%llu cycles",
             (unsigned long long)core.mispredictPenalty);
    paramRow("L1 caches", "%lluKB I/%lluKB D, %u-way, %uB line, "
             "%llu-cycle latency",
             (unsigned long long)(h.l1i.sizeBytes / 1024),
             (unsigned long long)(h.l1d.sizeBytes / 1024), h.l1d.assoc,
             h.l1d.lineBytes, (unsigned long long)h.l1d.latency);
    paramRow("L2 cache", "%lluKB, %u-way, %uB line, %llu-cycle latency",
             (unsigned long long)(h.l2.sizeBytes / 1024), h.l2.assoc,
             h.l2.lineBytes, (unsigned long long)h.l2.latency);
    paramRow("L3 cache", "%lluMB, %u-way, %uB line, %llu-cycle latency",
             (unsigned long long)(h.l3.sizeBytes / 1024 / 1024),
             h.l3.assoc, h.l3.lineBytes,
             (unsigned long long)h.l3.latency);
    paramRow("TLB size", "%u-entry ITLB/%u-entry DTLB", h.tlbEntries,
             h.tlbEntries);
    paramRow("MSHR entries", "%u/cache", h.l1d.mshrs);
    paramRow("Memory channels", "2/4/8 (this config: %u)",
             d.physicalChannels);
    paramRow("Memory BW/channel", "%.0f MHz, DDR, %uB width",
             d.timing.megaTransfersPerSec / 2, d.timing.transferBytes);
    paramRow("Memory banks", "%u banks/chip", d.banksPerChip);
    paramRow("DRAM access latency", "%lluns row, %lluns column, "
             "%lluns precharge",
             (unsigned long long)(d.timing.rowAccess * 1000 /
                                  (Cycle)d.timing.cpuMhz),
             (unsigned long long)(d.timing.columnAccess * 1000 /
                                  (Cycle)d.timing.cpuMhz),
             (unsigned long long)(d.timing.precharge * 1000 /
                                  (Cycle)d.timing.cpuMhz));
    paramRow("Line transfer", "%llu cpu cycles/64B line",
             (unsigned long long)d.lineTransferCycles());
}

// --- Table 2: the mixes and each SPEC2000 application model ----------

const char *
categoryName(AppCategory c)
{
    switch (c) {
      case AppCategory::Ilp: return "ILP";
      case AppCategory::Mid: return "MID";
      case AppCategory::Mem: return "MEM";
    }
    return "?";
}

const char *
patternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Streaming: return "streaming";
      case AccessPattern::Strided: return "strided";
      case AccessPattern::Random: return "random";
      case AccessPattern::PointerChase: return "ptr-chase";
      case AccessPattern::Mixed: return "mixed";
      case AccessPattern::RowHammer: return "rowhammer";
    }
    return "?";
}

void
reportTable2(const Sweep &, const Flags &)
{
    for (const WorkloadMix &m : table2Mixes()) {
        std::printf("  %-6s", m.name.c_str());
        for (size_t i = 0; i < m.apps.size(); ++i)
            std::printf("%s%s", i ? ", " : "", m.apps[i].c_str());
        std::printf("\n");
    }

    std::printf("\n== application models (substitution for SPEC2000 "
                "binaries; see DESIGN.md) ==\n\n");
    std::printf("  %-9s %-4s %-3s %7s %9s %-10s %6s %5s\n", "app",
                "cat", "fp", "ld+st", "cold(MB)", "pattern",
                "cold%%", "ILP");
    for (const AppProfile &p : spec2000Profiles()) {
        std::printf("  %-9s %-4s %-3s %6.0f%% %9.2f %-10s %5.1f%% "
                    "%5.1f\n",
                    p.name.c_str(), categoryName(p.category),
                    p.fpProgram ? "yes" : "no",
                    100.0 * (p.loadFrac + p.storeFrac),
                    static_cast<double>(p.coldBytes) / (1024 * 1024),
                    patternName(p.coldPattern), 100.0 * p.coldFrac,
                    p.depMean);
    }
}

// --- Figure 1: CPI breakdown (Section 4.2: the real machine and
//     machines with infinite L3 / L2 / L1 caches; the differences
//     attribute cycles to each hierarchy level) -----------------------

void
declareApps(Flags &flags)
{
    flags.declare("apps", "",
                  "comma-separated subset of applications (default: "
                  "all 26)");
}

std::vector<WorkloadMix>
appRows(const Flags &flags)
{
    std::vector<std::string> apps = splitList(flags.getString("apps"));
    if (apps.empty()) {
        for (const AppProfile &p : spec2000Profiles())
            apps.push_back(p.name);
    }
    std::vector<WorkloadMix> rows;
    for (const std::string &app : apps)
        rows.push_back({app, {app}});
    return rows;
}

/**
 * Section 4.2's four machines, each running the row's app alone.  The
 * real one is planned last, so it is the run --trace/--stats-* reach.
 * Each cell is its own per-config baseline, so the sweep simulates
 * nothing beyond its cells.
 */
std::vector<Cell>
cpiBreakdownCells(const Flags &)
{
    auto infinite = [](bool l1, bool l2, bool l3) {
        return [=](SystemConfig &c) {
            c.hierarchy.l1i.infinite = l1;
            c.hierarchy.l1d.infinite = l1;
            c.hierarchy.l2.infinite = l2;
            c.hierarchy.l3.infinite = l3;
        };
    };
    return {{"infL1", infinite(true, true, true), true},
            {"infL2", infinite(false, true, true), true},
            {"infL3", infinite(false, false, true), true},
            {"real", infinite(false, false, false), true}};
}

/** Applications sorted by increasing CPImem, as the paper plots them. */
void
reportCpiBreakdown(const Sweep &sweep, const Flags &)
{
    struct App {
        const std::string *name;
        CpiBreakdown cpi;
    };
    std::vector<App> apps;
    for (const SweepRow &row : sweep.rows)
        apps.push_back({&row.mix.name, cpiBreakdown(row)});
    std::sort(apps.begin(), apps.end(), [](const App &a, const App &b) {
        return a.cpi.mem < b.cpi.mem;
    });

    std::printf("%-10s %9s %9s %9s %9s %9s\n", "app", "CPIproc",
                "CPI_L2", "CPI_L3", "CPI_mem", "overall");
    for (const App &app : apps) {
        const CpiBreakdown &b = app.cpi;
        std::printf("%-10s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                    app.name->c_str(), b.proc, b.l2, b.l3, b.mem,
                    b.overall);
    }

    // The figure's headline claim, checked mechanically.
    const App &worst = apps.back();
    std::printf("\nlargest CPImem: %s (%.3f) — paper: mcf\n",
                worst.name->c_str(), worst.cpi.mem);
}

std::string
renderCpiBreakdown(const Sweep &sweep)
{
    std::string text;
    for (const SweepRow &row : sweep.rows) {
        const std::string &app = row.mix.name;
        const CpiBreakdown b = cpiBreakdown(row);
        appendMetric(text, app + ".cpi_overall", b.overall);
        appendMetric(text, app + ".cpi_proc", b.proc);
        appendMetric(text, app + ".cpi_l2", b.l2);
        appendMetric(text, app + ".cpi_l3", b.l3);
        appendMetric(text, app + ".cpi_mem", b.mem);
    }
    return text;
}

// --- Figure 2: fetch policies ----------------------------------------

std::vector<Cell>
fetchPolicyCells(const Flags &)
{
    std::vector<Cell> cells;
    for (FetchPolicyKind policy : allFetchPolicyKinds()) {
        cells.push_back(
            {fetchPolicyName(policy),
             [policy](SystemConfig &c) { c.core.fetchPolicy = policy; }});
    }
    return cells;
}

// --- Figure 3: DRAM performance loss ----------------------------------

/**
 * ICOUNT and DWarn on the real machine against the infinite-L3
 * reference under ICOUNT.  Each normalization comes twice, bracketing
 * the paper's (ambiguously specified) one:
 *  - fixed single-thread baselines, so the ratio is the raw
 *    throughput retained when the infinite L3 is replaced by the real
 *    memory system — this includes each program's intrinsic slowdown
 *    (the paper's 2-MEM "loses 73.4%" reads like this);
 *  - per-configuration baselines (".eff"), so the ratio compares SMT
 *    efficiency only (the paper's 2-MIX "loses 9.8%" reads like this).
 */
std::vector<Cell>
dramLossCells(const Flags &)
{
    auto icount_inf_l3 = [](SystemConfig &c) {
        c.core.fetchPolicy = FetchPolicyKind::Icount;
        c = c.withInfiniteL3();
    };
    auto icount = [](SystemConfig &c) {
        c.core.fetchPolicy = FetchPolicyKind::Icount;
    };
    auto dwarn = [](SystemConfig &c) {
        c.core.fetchPolicy = FetchPolicyKind::DWarn;
    };
    return {{"infL3-ICOUNT", icount_inf_l3},
            {"infL3-ICOUNT.eff", icount_inf_l3, true},
            {"dram-ICOUNT", icount},
            {"dram-DWarn", dwarn},
            {"dram-DWarn.eff", dwarn, true}};
}

/** Also reports the Section 5.1 side numbers: main-memory accesses
 *  per 100 instructions and the fraction of cycles issuing at least
 *  one integer instruction. */
void
reportDramLoss(const Sweep &sweep, const Flags &)
{
    ResultTable table({"dram+IC", "dram+DW", "IC tput", "DW tput",
                       "DW eff", "mem/100i", "int-issue%"});
    for (const SweepRow &row : sweep.rows) {
        const MixRun &ref_fixed = row.runs[0];
        const MixRun &ref_eff = row.runs[1];
        const MixRun &ic = row.runs[2];
        const MixRun &dw = row.runs[3];
        const MixRun &dw_eff = row.runs[4];
        table.addRow(
            row.mix.name,
            {ic.weightedSpeedup, dw.weightedSpeedup,
             ic.weightedSpeedup / ref_fixed.weightedSpeedup,
             dw.weightedSpeedup / ref_fixed.weightedSpeedup,
             dw_eff.weightedSpeedup / ref_eff.weightedSpeedup,
             dw.run.memAccessPer100(),
             100.0 * dw.run.intIssueActiveFrac});
    }
    table.print();
}

/** Window cells: infL3-ICOUNT, dram-DWarn. */
std::string
renderDramLoss(const Sweep &sweep)
{
    std::string text = renderRuns(sweep);
    for (const SweepRow &row : sweep.rows) {
        const MixRun &inf = row.runs[0];
        const MixRun &dw = row.runs[1];
        appendMetric(text, row.mix.name + ".dram-DWarn.mem_per_100i",
                     dw.run.memAccessPer100());
        appendMetric(text, row.mix.name + ".tput_retained",
                     dw.weightedSpeedup / inf.weightedSpeedup);
    }
    return text;
}

// --- Figures 4 and 5: memory concurrency on the default machine -----

std::vector<Cell>
defaultMachineCell(const Flags &)
{
    return {{"default", [](SystemConfig &) {}}};
}

/** Figure 4's bins of outstanding requests: 0-1, 2-4, 5-8, 9-16, >16. */
const std::vector<std::uint64_t> kOutstandingBins = {1, 4, 8, 16};
/** Figure 5's bins of contributing threads: 0-1, 2, ..., 7, >7. */
const std::vector<std::uint64_t> kThreadBins = {1, 2, 3, 4, 5, 6, 7};

/** Percent per histogram bin, one row per mix. */
void
reportHistogram(const Sweep &sweep, std::vector<std::string> columns,
                LogHistogram RunResult::*hist,
                const std::vector<std::uint64_t> &bins, bool above8)
{
    ResultTable table(std::move(columns));
    for (const SweepRow &row : sweep.rows) {
        const LogHistogram &h = row.runs[0].run.*hist;
        std::vector<double> values;
        for (const HistogramBin &bin : binFractions(h, bins))
            values.push_back(100.0 * bin.fraction);
        if (above8)
            values.push_back(100.0 * h.fractionAbove(8));
        table.addRow(row.mix.name, values);
    }
    table.print("%9.1f%%");
}

void
reportOutstanding(const Sweep &sweep, const Flags &)
{
    reportHistogram(sweep, {"1", "2-4", "5-8", "9-16", ">16", ">8frac"},
                    &RunResult::outstandingHist, kOutstandingBins, true);
}

void
reportThreadDistribution(const Sweep &sweep, const Flags &)
{
    reportHistogram(sweep, {"1", "2", "3", "4", "5", "6", "7", "8"},
                    &RunResult::threadsHist, kThreadBins, false);
}

/** Both histograms of the one sweep Figures 4 and 5 share. */
std::string
renderConcurrency(const Sweep &sweep)
{
    std::string text;
    for (const SweepRow &row : sweep.rows) {
        const std::string &mix = row.mix.name;
        const RunResult &run = row.runs[0].run;
        for (const HistogramBin &bin :
             binFractions(run.outstandingHist, kOutstandingBins)) {
            appendMetric(text, mix + ".outstanding." + bin.label,
                         bin.fraction);
        }
        appendMetric(text, mix + ".outstanding.frac_above8",
                     run.outstandingHist.fractionAbove(8));
        for (const HistogramBin &bin :
             binFractions(run.threadsHist, kThreadBins))
            appendMetric(text, mix + ".threads." + bin.label, bin.fraction);
    }
    return text;
}

// --- Figures 6 and 7: channel count and channel ganging ("xC-yG": a
//     ganged group moves one request over a wider bus but serves
//     fewer concurrently) ---------------------------------------------

std::vector<Cell>
channelCells(const Flags &)
{
    std::vector<Cell> cells;
    for (std::uint32_t channels : {2u, 4u, 8u}) {
        cells.push_back(
            {std::to_string(channels) + "ch",
             [channels](SystemConfig &c) { setDdrChannels(c, channels); }});
    }
    return cells;
}

void
reportChannels(const Sweep &sweep, const Flags &)
{
    ResultTable table({"2ch", "4ch", "8ch", "4ch norm", "8ch norm"});
    for (const SweepRow &row : sweep.rows) {
        const std::vector<double> ws = weightedSpeedups(row);
        table.addRow(row.mix.name, {ws[0], ws[1], ws[2], ws[1] / ws[0],
                                    ws[2] / ws[0]});
    }
    table.print();
}

std::vector<Cell>
gangingCells(const Flags &)
{
    const std::pair<std::uint32_t, std::uint32_t> orgs[] = {
        {2, 1}, {2, 2}, {4, 1}, {4, 2}, {8, 1}, {8, 2}, {8, 4}};
    std::vector<Cell> cells;
    for (auto [channels, gang] : orgs) {
        cells.push_back({DramConfig::ddrSdram(channels, gang).label(),
                         [channels, gang](SystemConfig &c) {
                             setDdrChannels(c, channels, gang);
                         }});
    }
    return cells;
}

// --- Figures 8 and 9: page vs. XOR mapping ---------------------------

std::vector<Cell>
ddrMappingCells(const Flags &)
{
    return {{"page",
             [](SystemConfig &c) {
                 c.dram.mapping = MappingScheme::PageInterleave;
             }},
            {"xor", [](SystemConfig &c) {
                 c.dram.mapping = MappingScheme::XorPermute;
             }}};
}

void
declareChips(Flags &flags)
{
    flags.declare("chips", "4", "RDRAM devices per channel");
}

/** The many internal banks of Direct Rambus (32/chip) give the
 *  permutation far more room than the DDR system of Figure 8. */
std::vector<Cell>
rdramMappingCells(const Flags &flags)
{
    const auto chips = flags.getUnsigned<std::uint32_t>("chips");
    const std::pair<const char *, MappingScheme> schemes[] = {
        {"rdram-page", MappingScheme::PageInterleave},
        {"rdram-xor", MappingScheme::XorPermute}};
    std::vector<Cell> cells;
    for (auto [label, scheme] : schemes) {
        cells.push_back({label, [chips, scheme](SystemConfig &c) {
                             c.dram = DramConfig::directRambus(2, chips);
                             c.dram.mapping = scheme;
                         }});
    }
    return cells;
}

/** Row-buffer miss rate (%) of the page and XOR cells, plus delta. */
void
reportRowMissRates(const Sweep &sweep, const Flags &)
{
    ResultTable table({"page", "xor", "delta"});
    for (const SweepRow &row : sweep.rows) {
        const double page = 100.0 * row.runs[0].run.dram.rowMissRate();
        const double xor_rate =
            100.0 * row.runs[1].run.dram.rowMissRate();
        table.addRow(row.mix.name, {page, xor_rate, page - xor_rate});
    }
    table.print("%9.1f%%");
}

// --- Figures 10 and 13: DRAM scheduling -------------------------------

std::vector<Cell>
paperSchedulerCells(const Flags &)
{
    return schedulerCells(allSchedulerKinds());
}

std::vector<Cell>
allSchedulerCells(const Flags &)
{
    return schedulerCells(allSchedulerKindsExtended());
}

// --- Energy sweep (beyond the paper): EPI isolates how much DRAM
//     energy each design spends per unit of work; ED2P (normalized to
//     Hit-first per row) weights delay quadratically.  More channels
//     add background power but finish the same work sooner. ---------

/** Channels x schedulers with the low-power state machine on (the
 *  --power* flags still override its thresholds). */
std::vector<Cell>
energyCells(const Flags &)
{
    std::vector<Cell> cells;
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        for (SchedulerKind s : allSchedulerKinds()) {
            cells.push_back({std::to_string(channels) + "ch." +
                                 schedulerName(s),
                             [channels, s](SystemConfig &c) {
                                 setDdrChannels(c, channels);
                                 c.scheduler = s;
                                 c.dram.withPowerManagement();
                             }});
        }
    }
    return cells;
}

double
energyPerInstNj(const MixRun &r)
{
    std::uint64_t insts = 0;
    for (std::uint64_t c : r.run.committed)
        insts += c;
    return insts ? r.run.power.totalEnergy / static_cast<double>(insts)
                 : 0.0;
}

void
reportEnergy(const Sweep &sweep, const Flags &)
{
    reportSchedulerGroups(sweep,
                          {"DRAM energy per committed instruction (nJ)",
                           "%10.4f", nullptr, energyPerInstNj},
                          true);
    reportSchedulerGroups(
        sweep,
        {"ED2P normalized to Hit-first (same row)", "%10.4f", nullptr,
         [](const MixRun &r) {
             const double cycles = static_cast<double>(r.run.measuredCycles);
             return r.run.power.totalEnergy * cycles * cycles;
         }},
        true, [](std::vector<double> &ed2p) {
            const double base = ed2p[1]; // Hit-first
            for (double &v : ed2p)
                v = base > 0.0 ? v / base : 0.0;
        });
}

std::string
renderEnergy(const Sweep &sweep)
{
    return renderEach(sweep, [](std::string &out, const std::string &label,
                                const MixRun &r) {
        appendRun(out, label, r);
        appendMetric(out, label + ".energy_per_inst_nj", energyPerInstNj(r));
    });
}

// --- Rowhammer sweep (beyond the paper): a hostile hammer thread
//     rides inside an SMT mix.  The mapping is forced to
//     PageInterleave because the XOR permutation diffuses same-bank
//     row adjacency (--xor shows that defense-by-accident), and
//     refresh is forced on because the refresh interval defines the
//     disturbance window.  The cells sweep the threshold and the
//     mitigation themselves, so only the model's own hammer flags
//     are declared and the rest of the group is rejected as unknown. --

void
declareHammerSweep(Flags &flags)
{
    declareHammerModelFlags(flags);
    flags.declare("base-mix", "2-MEM",
                  "Table 2 mix the hostile thread joins");
    flags.declare("pattern", "hammer-double",
                  "attack shape: hammer-single, hammer-double, "
                  "hammer-many");
    flags.declare("thresholds", "64,256,1024",
                  "hammer thresholds swept (activations per window)");
    flags.declare("xor", "false",
                  "keep the paper's XOR bank permutation instead of "
                  "PageInterleave (diffuses the attack)");
}

std::vector<WorkloadMix>
hostileRows(const Flags &flags)
{
    return {hostileMix(flags.getString("base-mix"),
                       flags.getString("pattern"))};
}

/** Labels "thr<threshold>[+mit].<scheduler>". */
std::vector<Cell>
hammerCells(const Flags &flags)
{
    std::vector<std::uint64_t> thresholds;
    for (const std::string &t : splitList(flags.getString("thresholds")))
        thresholds.push_back(Flags::parseUnsigned("thresholds", t));
    fatal_if(thresholds.empty(), "--thresholds must name at least one");

    const bool keep_xor = flags.getBool("xor");
    const double flip_prob = flags.getDouble("hammer-flip-prob");
    const auto blast = flags.getUnsigned<std::uint32_t>("hammer-blast");
    const auto seed = flags.getUnsigned<std::uint64_t>("hammer-seed");
    const auto capacity =
        flags.getUnsigned<std::uint32_t>("hammer-tracker-capacity");

    std::vector<Cell> cells;
    for (std::uint64_t threshold : thresholds) {
        for (bool mitigate : {false, true}) {
            const std::string group = "thr" + std::to_string(threshold) +
                                      (mitigate ? "+mit" : "");
            for (SchedulerKind s : allSchedulerKinds()) {
                auto configure = [=](SystemConfig &c) {
                    if (!keep_xor)
                        c.dram.mapping = MappingScheme::PageInterleave;
                    c.scheduler = s;
                    c.dram.withRefresh();
                    c.dram.withHammer(threshold, flip_prob, blast);
                    c.dram.hammer.seed = seed;
                    // Track at a quarter of the flip threshold so the
                    // preventive refresh wins the race to the victim.
                    if (mitigate) {
                        c.dram.withHammerMitigation(
                            capacity,
                            std::max<std::uint64_t>(1, threshold / 4));
                    }
                };
                cells.push_back({group + "." + schedulerName(s), configure});
            }
        }
    }
    return cells;
}

const MetricTable kHammerTables[] = {
    {"victim-row bit flips", "%10.0f", "victim_flips",
     [](const MixRun &r) {
         return static_cast<double>(r.run.hammer.victimFlips);
     }},
    {"weighted speedup (victims + hostile thread)", "%10.3f", nullptr,
     [](const MixRun &r) { return r.weightedSpeedup; }},
    {"preventive refreshes issued", "%10.0f", "preventive_refreshes",
     [](const MixRun &r) {
         return static_cast<double>(r.run.hammer.mitigationsIssued);
     }},
    {"preventive-refresh energy (nJ)", "%10.1f", "mitigation_energy_nj",
     [](const MixRun &r) { return r.run.power.mitigationEnergy; }},
};

void
reportHammer(const Sweep &sweep, const Flags &)
{
    for (const MetricTable &table : kHammerTables)
        reportSchedulerGroups(sweep, table, false);
}

std::string
renderHammer(const Sweep &sweep)
{
    return renderEach(sweep, [](std::string &out, const std::string &label,
                                const MixRun &r) {
        appendRun(out, label, r);
        for (const MetricTable &table : kHammerTables) {
            if (table.golden)
                appendMetric(out, label + "." + table.golden,
                             table.metric(r));
        }
    });
}

// --- Figure 13 (beyond the paper): demand-read latency decomposed
//     into the conservation-checked blame components and the
//     who-stalled-whom interference matrix, for every scheduler ------

void
declareMatrixCsv(Flags &flags)
{
    flags.declare("matrix-csv", "",
                  "write the inter-thread interference matrix (cycles "
                  "thread i lost to thread j) as CSV to this path");
}

/** Percent of the read-latency mass blamed on component @p c. */
double
blameShare(const ControllerStats &dram, std::size_t c)
{
    const double lat_sum = static_cast<double>(dram.readLatency.sum());
    return lat_sum > 0.0 ? 100.0 * dram.blameTotals.cycles[c] / lat_sum
                         : 0.0;
}

/** mix,scheduler,blocked,system,t0..t<w-1>,total — one row per
 *  thread, w the widest mix in the sweep. */
void
writeMatrixCsv(const std::string &path, const Sweep &sweep)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write --matrix-csv file '%s'", path.c_str());
        return;
    }
    std::size_t width = 0;
    for (const SweepRow &row : sweep.rows)
        width = std::max(width, row.mix.apps.size());
    std::fprintf(f, "mix,scheduler,blocked_thread,system");
    for (std::size_t j = 0; j < width; ++j)
        std::fprintf(f, ",t%zu", j);
    std::fprintf(f, ",total\n");
    for (const SweepRow &row : sweep.rows) {
        for (std::size_t s = 0; s < row.runs.size(); ++s) {
            const InterferenceMatrix &m = row.runs[s].run.dram.interference;
            for (std::uint32_t i = 0; i < row.mix.apps.size(); ++i) {
                const auto blocked = static_cast<ThreadId>(i);
                std::fprintf(f, "%s,%s,%u,%llu", row.mix.name.c_str(),
                             row.cells[s].label.c_str(), i,
                             (unsigned long long)m.at(blocked, kThreadNone));
                for (std::size_t j = 0; j < width; ++j) {
                    std::fprintf(f, ",%llu",
                                 (unsigned long long)m.at(
                                     blocked, static_cast<ThreadId>(j)));
                }
                std::fprintf(f, ",%llu\n",
                             (unsigned long long)m.rowSum(blocked));
            }
        }
    }
    std::fclose(f);
}

/** The shares always sum to 100%: the attribution engine guarantees
 *  sum(blame) == readLatency.sum() exactly, re-verified per run. */
void
reportBlame(const Sweep &sweep, const Flags &flags)
{
    for (const SweepRow &row : sweep.rows) {
        for (const MixRun &r : row.runs) {
            const ControllerStats &dram = r.run.dram;
            fatal_if(dram.blameTotals.sum() != dram.readLatency.sum(),
                     "blame does not reconcile with readLatency for "
                     "%s (sum %llu vs %llu)",
                     row.mix.name.c_str(),
                     (unsigned long long)dram.blameTotals.sum(),
                     (unsigned long long)dram.readLatency.sum());
        }
        // Progress chatter; --quiet output is exactly the tables.
        if (logVerbosity() != LogVerbosity::Quiet) {
            std::printf("fig13: %s done (%zu schedulers)\n",
                        row.mix.name.c_str(), row.runs.size());
            std::fflush(stdout);
        }
    }

    std::vector<std::string> cols;
    for (std::size_t c = 0; c < kNumBlameComponents; ++c)
        cols.push_back(blameComponentName(static_cast<BlameComponent>(c)));
    for (const SweepRow &row : sweep.rows) {
        std::printf("-- %s --\n", row.mix.name.c_str());
        ResultTable table(cols);
        for (std::size_t s = 0; s < row.runs.size(); ++s) {
            std::vector<double> shares;
            for (std::size_t c = 0; c < kNumBlameComponents; ++c)
                shares.push_back(blameShare(row.runs[s].run.dram, c));
            table.addRow(row.cells[s].label, shares);
        }
        table.print("%10.2f");
    }

    const std::string matrix_csv = flags.getString("matrix-csv");
    if (!matrix_csv.empty())
        writeMatrixCsv(matrix_csv, sweep);
}

/** Shares per component, the exact reconcile residual (always 0) and
 *  the interference row sums. */
std::string
renderBlame(const Sweep &sweep)
{
    return renderEach(sweep, [](std::string &out, const std::string &label,
                                const MixRun &r) {
        const ControllerStats &dram = r.run.dram;
        for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
            appendMetric(out,
                         label + ".share." +
                             blameComponentName(static_cast<BlameComponent>(c)),
                         blameShare(dram, c));
        }
        appendMetric(out, label + ".reconcile",
                     static_cast<double>(dram.blameTotals.sum()) -
                         static_cast<double>(dram.readLatency.sum()));
        for (std::size_t t = 0; t < r.run.ipc.size(); ++t) {
            appendMetric(out, label + ".interference.t" + std::to_string(t),
                         static_cast<double>(dram.interference.rowSum(
                             static_cast<ThreadId>(t))));
        }
    });
}

// --- Figure 14 (beyond the paper): OS thread placement on a
//     multi-socket NUMA machine under a loader-allocates home policy
//     (every page on socket 0).  Round-robin strands one memory-bound
//     thread on the remote socket; memory-aware placement packs the
//     memory-bound threads onto the socket that owns their pages. ----

void
declareTopology(Flags &flags)
{
    flags.declare("sockets", "2", "sockets on the machine");
    flags.declare("cores-per-socket", "1", "SMT cores per socket");
    flags.declare("smt-ways", "2",
                  "SMT contexts the OS schedules per core (0 = "
                  "uncapped)");
    flags.declare("placement", "",
                  "comma-separated placement policies to sweep "
                  "(default: packed,rr,memaware,migrate)");
    flags.declare("home", "loader",
                  "page home policy: local (first-touch), loader "
                  "(all pages on socket 0), interleave");
    flags.declare("hop-latency", "40",
                  "interconnect latency per ring hop, cycles");
    flags.declare("link-occupancy", "4",
                  "cycles one transfer occupies a directed link");
    flags.declare("migrate-epoch", "20000",
                  "migration check period, cycles (migrate policy)");
    flags.declare("migrate-cost", "1000",
                  "pipeline-refill penalty per migration, cycles");
}

PlacementPolicy
placementFromName(const std::string &name)
{
    for (PlacementPolicy p :
         {PlacementPolicy::Packed, PlacementPolicy::RoundRobin,
          PlacementPolicy::MemoryAware, PlacementPolicy::Migrate}) {
        if (name == placementPolicyName(p))
            return p;
    }
    fatal("unknown placement policy '%s' (want packed, rr, memaware, or "
          "migrate)", name.c_str());
}

HomePolicy
homeFromName(const std::string &name)
{
    for (HomePolicy h : {HomePolicy::Local, HomePolicy::Loader,
                         HomePolicy::Interleave}) {
        if (name == homePolicyName(h))
            return h;
    }
    fatal("unknown home policy '%s' (want local, loader, or interleave)",
          name.c_str());
}

/** One cell per placement policy on the flag-shaped machine. */
std::vector<Cell>
placementCells(const Flags &flags)
{
    TopologyConfig machine;
    machine.enabled = true;
    machine.sockets = flags.getUnsigned<std::uint32_t>("sockets");
    machine.coresPerSocket =
        flags.getUnsigned<std::uint32_t>("cores-per-socket");
    machine.smtWays = flags.getUnsigned<std::uint32_t>("smt-ways");
    machine.home = homeFromName(flags.getString("home"));
    machine.hopLatency = flags.getUnsigned<Cycle>("hop-latency");
    machine.linkOccupancy = flags.getUnsigned<Cycle>("link-occupancy");

    const std::string csv = flags.getString("placement");
    std::vector<Cell> cells;
    for (const std::string &placement :
         csv.empty() ? std::vector<std::string>{"packed", "rr", "memaware",
                                                "migrate"}
                     : splitList(csv)) {
        TopologyConfig t = machine;
        t.placement = placementFromName(placement);
        if (t.placement == PlacementPolicy::Migrate) {
            t.migrationEpoch = flags.getUnsigned<Cycle>("migrate-epoch");
            t.migrationCost = flags.getUnsigned<Cycle>("migrate-cost");
        }
        cells.push_back(
            {placement, [t](SystemConfig &c) { c.topology = t; }});
    }
    return cells;
}

double
remoteBlame(const MixRun &r)
{
    return static_cast<double>(
        r.run.dram.blameTotals[BlameComponent::RemoteAccess]);
}

void
reportPlacement(const Sweep &sweep, const Flags &)
{
    const std::vector<std::string> placements = labels(sweep.rows.front());
    ResultTable ws_table(placements);
    ResultTable remote_table(placements);
    for (const SweepRow &row : sweep.rows) {
        std::vector<double> remote;
        for (const MixRun &r : row.runs)
            remote.push_back(r.run.numa.remoteReadFrac());
        ws_table.addRow(row.mix.name, weightedSpeedups(row));
        remote_table.addRow(row.mix.name, remote);
    }
    std::printf("weighted speedup:\n");
    ws_table.print();
    std::printf("remote read fraction:\n");
    remote_table.print();

    // Per-thread detail for the first mix: which threads went remote
    // and what it cost them.
    const SweepRow &first = sweep.rows.front();
    for (std::size_t i = 0; i < placements.size(); ++i) {
        const MixRun &r = first.runs[i];
        std::printf("%s %s: migrations=%llu\n", first.mix.name.c_str(),
                    placements[i].c_str(),
                    (unsigned long long)r.run.numa.migrations);
        for (std::size_t t = 0; t < r.run.ipc.size(); ++t) {
            const auto &rr = r.run.numa.perThreadRemoteReads;
            std::printf("  t%zu %-8s ipc=%.4f remote_reads=%llu\n", t,
                        first.mix.apps[t].c_str(), r.run.ipc[t],
                        (unsigned long long)(t < rr.size() ? rr[t] : 0));
        }
    }
}

std::string
renderPlacement(const Sweep &sweep)
{
    return renderEach(sweep, [](std::string &out, const std::string &label,
                                const MixRun &r) {
        appendRun(out, label, r);
        appendMetric(out, label + ".remote_frac", r.run.numa.remoteReadFrac());
        appendMetric(out, label + ".remote_blame", remoteBlame(r));
    });
}

/** Window cells: rr, memaware.  Memory-aware must beat round-robin on
 *  remote-access blame, remote reads and the memory-bound mcf's IPC. */
std::string
checkPlacement(const Sweep &sweep)
{
    const MixRun &rr = sweep.rows.front().runs[0];
    const MixRun &aware = sweep.rows.front().runs[1];
    std::string violated;
    if (!(remoteBlame(aware) < remoteBlame(rr)))
        violated += "memaware remote-access blame not below rr\n";
    if (!(aware.run.numa.remoteReads < rr.run.numa.remoteReads))
        violated += "memaware remote reads not below rr\n";
    if (!(aware.run.ipc[0] > rr.run.ipc[0]))
        violated += "memaware mcf IPC not above rr\n";
    return violated;
}

// --- Ablations of the design choices DESIGN.md calls out ------------

std::vector<Cell>
ablationCells(const Flags &)
{
    return {
        {"baseline", [](SystemConfig &) {}},
        {"close-pg",
         [](SystemConfig &c) { c.dram.pageMode = PageMode::Close; }},
        {"prefetch",
         [](SystemConfig &c) { c.hierarchy.prefetchNextLine = true; }},
        {"critical",
         [](SystemConfig &c) {
             c.scheduler = SchedulerKind::CriticalityBased;
         }},
        {"eager-wr",
         [](SystemConfig &c) {
             c.dram.writeHighWatermark = 1;
             c.dram.writeLowWatermark = 0;
         }},
        {"pg-ilv",
         [](SystemConfig &c) {
             c.dram.channelInterleave = ChannelInterleave::Page;
         }},
    };
}

void
reportAblation(const Sweep &sweep, const Flags &)
{
    ResultTable table(labels(sweep.rows.front()));
    for (const SweepRow &row : sweep.rows) {
        std::vector<double> ws = weightedSpeedups(row);
        for (std::size_t i = 1; i < ws.size(); ++i)
            ws[i] /= ws[0];
        table.addRow(row.mix.name, ws);
    }
    table.print();
    std::printf("(columns after 'baseline' are ratios to it)\n");
}

std::vector<FigureSpec>
buildFigureSpecs()
{
    return {
        {.name = "table1_parameters",
         .figure = "Table 1",
         .what = "simulator parameters",
         .report = reportTable1},
        {.name = "table2_workloads",
         .figure = "Table 2",
         .what = "workload mixes",
         .report = reportTable2},
        {.name = "fig1_cpi_breakdown",
         .figure = "Figure 1",
         .what = "CPI breakdown, applications sorted by CPImem",
         .claim = "mcf has by far the largest CPImem; ILP applications "
                  "(gzip, bzip2, sixtrack, eon, ...) have negligible "
                  "CPImem",
         .declare = declareApps,
         .rows = appRows,
         .cells = cpiBreakdownCells,
         .report = reportCpiBreakdown,
         .golden = GoldenWindow{"Fig1CpiBreakdown", "fig1_cpi_breakdown",
                                {"--apps=mcf"}, {}, renderCpiBreakdown}},
        {.name = "fig2_fetch_policies",
         .figure = "Figure 2",
         .what = "weighted speedup of four fetch policies",
         .claim = "comparable for ILP workloads; DG/DWarn/Fetch-stall "
                  "beat ICOUNT clearly on 8-MEM and 8-MIX",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = fetchPolicyCells,
         .report = reportWeightedSpeedups,
         .golden = GoldenWindow{"Fig2FetchPolicies", "fig2_fetch_policies",
                                {"--mixes=2-MIX"}, {}, renderRuns}},
        {.name = "fig3_dram_performance_loss",
         .figure = "Figure 3",
         .what = "2-channel DRAM vs. infinite L3 (normalized weighted "
                 "speedup)",
         .claim = "MEM workloads lose most of their performance to DRAM "
                  "accesses; DWarn recovers much of it for 8-MEM/8-MIX; "
                  "ILP workloads barely notice the memory system",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = dramLossCells,
         .report = reportDramLoss,
         .golden = GoldenWindow{"Fig3DramPerformanceLoss",
                                "fig3_dram_performance_loss",
                                {"--mixes=2-MEM"},
                                {"infL3-ICOUNT", "dram-DWarn"},
                                renderDramLoss}},
        {.name = "fig4_concurrency",
         .figure = "Figure 4",
         .what = "outstanding requests while the DRAM system is busy",
         .claim = "MEM workloads almost always have multiple requests "
                  "outstanding; concurrency grows with the thread count",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = defaultMachineCell,
         .report = reportOutstanding,
         // Also pins Figure 5, which runs the same cells.
         .golden = GoldenWindow{"Fig4Fig5ConcurrencyHistograms",
                                "fig4_fig5_concurrency",
                                {"--mixes=4-MEM"}, {}, renderConcurrency}},
        {.name = "fig5_thread_distribution",
         .figure = "Figure 5",
         .what = "threads contributing when >= 2 requests are outstanding",
         .claim = "for MEM workloads the concurrent requests come from "
                  "most or all threads; for ILP workloads usually from a "
                  "single thread",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = defaultMachineCell,
         .report = reportThreadDistribution},
        {.name = "fig6_channels",
         .figure = "Figure 6",
         .what = "weighted speedup vs. channel count, normalized to 2 "
                 "channels",
         .claim = "channel scaling helps MEM workloads most (paper: "
                  "+73.7%/+153.8%/+151.1% for 2/4/8-MEM at 8 channels); "
                  "ILP workloads are insensitive",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = channelCells,
         .report = reportChannels,
         .golden = GoldenWindow{"Fig6Channels", "fig6_channels",
                                {"--mixes=2-MEM"}, {"2ch", "4ch"},
                                renderRuns}},
        {.name = "fig7_channel_ganging",
         .figure = "Figure 7",
         .what = "channel ganging, weighted speedup normalized to 2C-1G",
         .claim = "independent channels win: ganging both channels of "
                  "the 2-channel system costs up to ~34% (2-MEM); 8C-4G "
                  "reaches only ~half of 8C-1G for 4-MEM (up to 90% gap)",
         .defaultRows = memAndMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = gangingCells,
         .report = reportNormalizedToFirst,
         .golden = GoldenWindow{"Fig7ChannelGanging", "fig7_channel_ganging",
                                {"--mixes=2-MEM"},
                                {"2C-1G", "2C-2G", "4C-1G", "4C-2G"},
                                renderRuns}},
        {.name = "fig8_mapping_ddr",
         .figure = "Figure 8",
         .what = "row-buffer miss rate (%), page vs. XOR mapping, DDR",
         .claim = "XOR reduces miss rates moderately; rates rise with the "
                  "thread count (bank contention), with a dip possible "
                  "at 4-MIX; few banks (8) keep MEM-mix rates high",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = ddrMappingCells,
         .report = reportRowMissRates,
         .golden = GoldenWindow{"Fig8MappingDdr", "fig8_mapping_ddr",
                                {"--mixes=2-MEM"}, {}, renderRuns}},
        {.name = "fig9_mapping_rdram",
         .figure = "Figure 9",
         .what = "row-buffer miss rate (%), page vs. XOR mapping, RDRAM",
         .claim = "with many more banks the XOR scheme cuts miss rates "
                  "much more than on DDR (paper: 4-MEM 48.8% -> 32.2%)",
         .defaultRows = allMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .declare = declareChips,
         .cells = rdramMappingCells,
         .report = reportRowMissRates,
         .golden = GoldenWindow{"Fig9MappingRdram", "fig9_mapping_rdram",
                                {"--mixes=2-MEM"}, {}, renderRuns}},
        {.name = "fig10_thread_aware",
         .figure = "Figure 10",
         .what = "weighted speedup by scheduling policy, normalized to "
                 "FCFS",
         .claim = "hit-first gains a few percent over FCFS; thread-aware "
                  "schemes add up to ~30% for 2-MEM (request-based), with "
                  "gains shrinking as the thread count grows",
         .defaultRows = memAndMixNames(),
         .groups = kPowerFlags | kHammerFlags | kRobustnessFlags,
         .cells = paperSchedulerCells,
         .report = reportNormalizedToFirst,
         .golden = GoldenWindow{"Fig10Schedulers", "fig10_schedulers",
                                {"--mixes=2-MEM"}, {}, renderRuns}},
        {.name = "fig11_energy",
         .figure = "Energy sweep",
         .what = "DRAM energy/instruction (nJ) and normalized ED2P, "
                 "schedulers x channel counts, low-power machine on",
         .claim = "not in the paper: energy extends its performance-only "
                  "comparison; expect Hit-first-class schedulers to win "
                  "ED2P since delay dominates quadratically",
         .defaultRows = {"2-MEM", "4-MEM"},
         .groups = kPowerFlags | kHammerFlags,
         .cells = energyCells,
         .report = reportEnergy,
         .golden = GoldenWindow{"Fig11Energy", "fig11_energy",
                                {"--mixes=2-MEM"}, {}, renderEnergy}},
        {.name = "fig12_rowhammer",
         .figure = "Rowhammer sweep",
         .what = "victim flips, weighted speedup, and mitigation cost for "
                 "mix {mix}, schedulers x thresholds",
         .claim = "not in the paper: flips grow as the threshold drops; "
                  "Graphene-style preventive refresh drives them to ~0 at "
                  "a small bandwidth/energy cost on every scheduler",
         .groups = kRobustnessFlags,
         .declare = declareHammerSweep,
         .rows = hostileRows,
         .cells = hammerCells,
         .report = reportHammer,
         // FCFS lets the attack land; Hit-first absorbs it in row hits.
         .golden = GoldenWindow{"Fig12Rowhammer", "fig12_rowhammer",
                                {"--thresholds=64",
                                 "--hammer-flip-prob=0.05"},
                                {"thr64.FCFS", "thr64.Hit-first",
                                 "thr64+mit.FCFS", "thr64+mit.Hit-first"},
                                renderHammer}},
        {.name = "fig13_blame",
         .figure = "Figure 13",
         .what = "share of demand-read latency per blame component (%), "
                 "by scheduler",
         .claim = "beyond the paper: queueing dominates memory-bound mixes "
                  "and grows with thread count; thread-aware schedulers "
                  "shift cycles between queueing and scheduler-deferral "
                  "rather than shrinking intrinsic cost",
         .defaultRows = {"1-MEM", "2-MEM", "4-MEM"},
         // Table 2 starts at two threads; the single-thread anchor runs
         // mcf alone, where every queueing cycle is self-inflicted.
         .localMixes = {{"1-MEM", {"mcf"}}},
         .groups = kPowerFlags | kHammerFlags | kRobustnessFlags,
         .declare = declareMatrixCsv,
         .cells = allSchedulerCells,
         .report = reportBlame,
         .golden = GoldenWindow{"Fig13Blame", "fig13_blame", {}, {},
                                renderBlame}},
        {.name = "fig14_numa",
         .figure = "Figure 14",
         .what = "weighted speedup and remote-access share by OS "
                 "placement policy on a multi-socket machine",
         .claim = "memory-aware placement keeps memory-bound threads on "
                  "the socket that owns their pages; round-robin strands "
                  "one and pays a ring hop per access",
         .defaultRows = {"n4-MIX", "n4-MEM"},
         // Ordered MEM,MEM,ILP,ILP so placement policy, not mix order,
         // decides which threads end up remote.
         .localMixes = {{"n4-MIX", {"mcf", "equake", "gzip", "bzip2"}},
                        {"n4-MEM", {"mcf", "ammp", "equake", "swim"}}},
         .groups = kRobustnessFlags,
         .declare = declareTopology,
         .cells = placementCells,
         .report = reportPlacement,
         .golden = GoldenWindow{"Fig14Numa", "fig14_numa",
                                {"--mixes=n4-MIX"}, {"rr", "memaware"},
                                renderPlacement, checkPlacement}},
        {.name = "ablation_design_choices",
         .figure = "Ablation",
         .what = "design choices (weighted speedup)",
         .claim = "open page should beat close page for workloads with "
                  "row locality; next-line prefetch helps streaming MEM "
                  "mixes; criticality ordering is a small refinement",
         .defaultRows = memAndMixNames(),
         .groups = kPowerFlags | kHammerFlags,
         .cells = ablationCells,
         .report = reportAblation,
         .golden = GoldenWindow{"AblationDesignChoices",
                                "ablation_design_choices",
                                {"--mixes=2-MIX,2-MEM"}, {}, renderRuns}},
    };
}

} // namespace

const std::vector<FigureSpec> &
figureSpecs()
{
    static const std::vector<FigureSpec> specs = buildFigureSpecs();
    return specs;
}

CpiBreakdown
cpiBreakdown(const SweepRow &row)
{
    // CPI of the row's app on the cpiBreakdownCells() machine @p label.
    auto cpi = [&row](const char *label) {
        for (std::size_t c = 0; c < row.cells.size(); ++c) {
            if (row.cells[c].label == label)
                return 1.0 / row.runs.at(c).run.ipc.at(0);
        }
        panic("row %s has no %s cell", row.mix.name.c_str(), label);
    };

    // Section 4.2: CPI_overall (real), CPI_pL3 (infinite L3),
    // CPI_pL2 (infinite L2), CPI_proc (infinite L1s).
    const double overall = cpi("real");
    const double p_l3 = cpi("infL3");
    const double p_l2 = cpi("infL2");
    const double proc = cpi("infL1");

    CpiBreakdown b;
    b.overall = overall;
    b.proc = proc;
    b.l2 = std::max(0.0, p_l2 - proc);
    b.l3 = std::max(0.0, p_l3 - p_l2);
    b.mem = std::max(0.0, overall - p_l3);
    return b;
}

} // namespace smtdram
