#include "sim/figure_spec.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/logging.hh"
#include "sim/parallel_runner.hh"

namespace smtdram
{

namespace
{

/** The banner title, "{mix}" replaced by @p mix. */
std::string
title(const FigureSpec &spec, const std::string &mix)
{
    std::string what = spec.what;
    const std::string::size_type at = what.find("{mix}");
    if (at != std::string::npos)
        what.replace(at, 5, mix);
    return spec.figure + ": " + what;
}

/** Flags every simulating figure takes. */
void
declareSweepFlags(Flags &flags, bool mixes)
{
    flags.declare("insts", "40000", "measured instructions per thread");
    flags.declare("warmup", "20000", "warm-up instructions per thread");
    flags.declare("seed", "42", "workload seed");
    if (mixes) {
        flags.declare("mixes", "",
                      "comma-separated subset of Table 2 mixes or the "
                      "figure's own (default: the figure's own set)");
    }

    // Observability: with no flag given a figure emits nothing extra.
    // The trace/stats files describe one run, the sweep's last planned
    // cell (see planSweep), whatever --jobs is; alone-IPC baselines
    // never write (see ParallelExperimentRunner::aloneIpc).
    flags.declare("trace", "",
                  "write a Chrome trace-event / Perfetto JSON of the "
                  "run to this path");
    flags.declare("stats-json", "",
                  "write the schema-versioned stats document to this "
                  "path");
    flags.declare("stats-csv", "",
                  "write the epoch time-series CSV to this path");
    flags.declare("epoch", "0",
                  "cycles between stats time-series samples "
                  "(0 = final snapshot only)");
    flags.declare("quiet", "false",
                  "suppress warn()/inform() chatter on stderr/stdout");

    // --jobs 0 means one worker per hardware thread; results are
    // byte-identical for every value.
    flags.declare("jobs", "0",
                  "worker threads for the sweep (0 = one per hardware "
                  "thread, 1 = serial)");
    flags.declare("bench-json", "",
                  "write serial-vs-parallel wall-clock timings of the "
                  "sweep as JSON to this path");
}

ObservabilityConfig
observabilityFromFlags(const Flags &flags)
{
    ObservabilityConfig o;
    o.tracePath = flags.getString("trace");
    o.statsJsonPath = flags.getString("stats-json");
    o.statsCsvPath = flags.getString("stats-csv");
    o.epoch = flags.getUnsigned<Cycle>("epoch");
    return o;
}

/** Worker count from --jobs, resolving 0 to hardware concurrency. */
unsigned
jobsFromFlags(const Flags &flags)
{
    const auto v = flags.getUnsigned<unsigned>("jobs");
    return v == 0 ? std::max(1u, std::thread::hardware_concurrency()) : v;
}

/**
 * Write the --bench-json throughput document: wall-clock seconds for
 * the same sweep executed serially and with @p jobs workers.
 */
void
writeThroughputJson(const std::string &path, const std::string &bench,
                    unsigned jobs, std::size_t simulations,
                    double serial_seconds, double parallel_seconds)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write --bench-json file '%s'", path.c_str());
        return;
    }
    const double speedup =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"smtdram-bench-throughput\",\n"
                 "  \"version\": 1,\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"jobs\": %u,\n"
                 "  \"simulations\": %zu,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"parallel_seconds\": %.6f,\n"
                 "  \"speedup\": %.3f\n"
                 "}\n",
                 bench.c_str(), jobs, simulations, serial_seconds,
                 parallel_seconds, speedup);
    std::fclose(f);
}

void
applyFlagGroups(const Flags &flags, unsigned groups, SystemConfig &config)
{
    DramConfig &dram = config.dram;
    if (groups & kRobustnessFlags) {
        if (flags.getBool("refresh"))
            dram.withRefresh();
        dram.checkerEnabled = flags.getBool("checker");
        if (flags.getBool("faults")) {
            FaultConfig &f = dram.faults;
            f.enabled = true;
            f.seed = flags.getUnsigned<std::uint64_t>("fault-seed");
            f.busStallProbability = flags.getDouble("bus-stall-prob");
            f.busStallCycles = flags.getUnsigned<Cycle>("bus-stall-cycles");
            f.readErrorProbability = flags.getDouble("read-error-prob");
            f.enqueueDelayProbability =
                flags.getDouble("enqueue-delay-prob");
            f.enqueueDelayMax = flags.getUnsigned<Cycle>("enqueue-delay-max");
        }
        if (flags.getBool("ecc")) {
            dram.withEcc(flags.getDouble("ecc-correctable-prob"),
                         flags.getDouble("ecc-uncorrectable-prob"),
                         flags.getUnsigned<Cycle>("scrub-interval"));
            dram.ecc.checkOverheadCycles =
                flags.getUnsigned<Cycle>("ecc-overhead");
            dram.ecc.scrubBurst =
                flags.getUnsigned<std::uint32_t>("scrub-burst");
        }
    }
    if ((groups & kPowerFlags) && flags.getBool("power")) {
        dram.withPowerManagement(
            flags.getUnsigned<Cycle>("power-pd-idle"),
            flags.getUnsigned<Cycle>("power-slow-idle"),
            flags.getUnsigned<Cycle>("power-sr-idle"));
    }
    if ((groups & kHammerFlags) && flags.getBool("hammer")) {
        dram.withHammer(
            flags.getUnsigned<std::uint64_t>("hammer-threshold"),
            flags.getDouble("hammer-flip-prob"),
            flags.getUnsigned<std::uint32_t>("hammer-blast"));
        dram.hammer.seed = flags.getUnsigned<std::uint64_t>("hammer-seed");
        if (flags.getBool("hammer-mitigate")) {
            dram.withHammerMitigation(
                flags.getUnsigned<std::uint32_t>("hammer-tracker-capacity"),
                flags.getUnsigned<std::uint64_t>("hammer-mitigate-threshold"));
        }
    }
}

} // namespace

const FigureSpec *
findFigure(const std::string &name)
{
    for (const FigureSpec &spec : figureSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

void
declareHammerModelFlags(Flags &flags)
{
    flags.declare("hammer-seed", "7", "hammer-flip random seed");
    flags.declare("hammer-flip-prob", "0.001",
                  "per-activation flip chance once past the threshold");
    flags.declare("hammer-blast", "1",
                  "blast radius: victim rows affected on each side of an "
                  "aggressor");
    flags.declare("hammer-tracker-capacity", "16",
                  "Misra-Gries aggressor-table entries per bank");
}

namespace
{

void
declareFlagGroups(Flags &flags, unsigned groups)
{
    if (groups & kPowerFlags) {
        flags.declare("power", "false",
                      "enable the per-rank low-power state machine "
                      "(powerdown/self-refresh with exit penalties)");
        flags.declare("power-pd-idle", "96",
                      "idle cycles before a rank enters fast-exit "
                      "powerdown");
        flags.declare("power-slow-idle", "1024",
                      "idle cycles before it drops to slow-exit "
                      "powerdown");
        flags.declare("power-sr-idle", "8192",
                      "idle cycles before it enters self-refresh");
    }
    if (groups & kHammerFlags) {
        flags.declare("hammer", "false",
                      "enable the rowhammer disturbance model "
                      "(victim-row bit flips under neighbor-activation "
                      "pressure)");
        flags.declare("hammer-threshold", "4096",
                      "neighbor activations per refresh window before "
                      "a victim row starts sampling flips");
        flags.declare("hammer-mitigate", "false",
                      "enable Graphene-style preventive refresh "
                      "(requires --hammer)");
        flags.declare("hammer-mitigate-threshold", "1024",
                      "tracked activation count that triggers "
                      "preventive refresh of a row's neighbors");
        declareHammerModelFlags(flags);
    }
    if (groups & kRobustnessFlags) {
        flags.declare("faults", "false",
                      "enable DRAM fault injection "
                      "(stalls/retries/delays)");
        flags.declare("fault-seed", "1", "fault-injection random seed");
        flags.declare("bus-stall-prob", "0.001",
                      "per-cycle chance a bus-stall window opens");
        flags.declare("bus-stall-cycles", "200",
                      "length of one bus-stall window, cycles");
        flags.declare("read-error-prob", "0.01",
                      "chance a completing read retries (transient "
                      "error)");
        flags.declare("enqueue-delay-prob", "0.05",
                      "chance an enqueue's eligibility is delayed");
        flags.declare("enqueue-delay-max", "64",
                      "max injected enqueue delay, cycles");
        flags.declare("refresh", "false",
                      "model per-bank auto-refresh (tREFI/tRFC)");
        flags.declare("checker", "false",
                      "enable the DRAM conservation/aging checker");
        flags.declare("ecc", "false",
                      "model SECDED ECC (check-bit transfer overhead, "
                      "patrol scrubbing, correctable/uncorrectable "
                      "errors)");
        flags.declare("ecc-overhead", "4",
                      "extra data-bus cycles per burst for check bits");
        flags.declare("ecc-correctable-prob", "1e-4",
                      "chance a completing read has a single-bit "
                      "error");
        flags.declare("ecc-uncorrectable-prob", "1e-6",
                      "chance a completing read has a multi-bit error");
        flags.declare("scrub-interval", "50000",
                      "cycles between patrol-scrub bursts per channel");
        flags.declare("scrub-burst", "1",
                      "scrub reads injected per scrub interval");
    }
}

} // namespace

Flags
figureFlags(const FigureSpec &spec, const std::vector<std::string> &args)
{
    Flags flags;
    if (spec.simulates()) {
        declareSweepFlags(flags, /*mixes=*/spec.rows == nullptr);
        declareFlagGroups(flags, spec.groups);
    }
    if (spec.declare)
        spec.declare(flags);

    // Flags::parse() skips argv[0], the program name.
    std::vector<std::string> argv_strings = {"smtdram_fig " + spec.name};
    argv_strings.insert(argv_strings.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &s : argv_strings)
        argv.push_back(s.data());
    flags.parse(static_cast<int>(argv.size()), argv.data(),
                title(spec, "<mix>"));
    return flags;
}

std::vector<WorkloadMix>
figureRows(const FigureSpec &spec, const Flags &flags)
{
    if (spec.rows)
        return spec.rows(flags);
    const std::string csv = flags.getString("mixes");
    const std::vector<std::string> names =
        csv.empty() ? spec.defaultRows : splitList(csv);
    fatal_if(names.empty(), "--mixes=%s names no mix", csv.c_str());
    std::vector<WorkloadMix> rows;
    for (const std::string &name : names) {
        auto local = std::find_if(
            spec.localMixes.begin(), spec.localMixes.end(),
            [&](const WorkloadMix &m) { return m.name == name; });
        rows.push_back(local != spec.localMixes.end() ? *local
                                                      : mixByName(name));
    }
    return rows;
}

std::vector<SweepRow>
planSweep(const FigureSpec &spec, const Flags &flags,
          const std::vector<std::string> &keep)
{
    const std::vector<Cell> cells = spec.cells(flags);
    std::vector<SweepRow> rows;
    for (WorkloadMix &mix : figureRows(spec, flags)) {
        SweepRow row;
        row.mix = std::move(mix);
        // An unknown app dies here too, not on a worker.
        profilesForMix(row.mix);
        for (const Cell &cell : cells) {
            if (!keep.empty() &&
                std::find(keep.begin(), keep.end(), cell.label) == keep.end())
                continue;
            SystemConfig config = SystemConfig::paperDefault(
                static_cast<std::uint32_t>(row.mix.apps.size()));
            cell.configure(config);
            applyFlagGroups(flags, spec.groups, config);
            // A bad cell dies here, on the calling thread, before any
            // banner or worker, not once per worker that builds it.
            config.dram.validate();
            if (config.topology.active())
                config.topology.validate(config.core.numThreads);
            row.cells.push_back({cell.label, config, cell.perConfigBaselines});
        }
        rows.push_back(std::move(row));
    }
    // Every cell would write the same --trace/--stats-* paths, and
    // under --jobs > 1 concurrently.  Only the last one planned, the
    // run a serial sweep finishes with, writes them.
    if (!rows.empty() && !rows.back().cells.empty())
        rows.back().cells.back().config.observe =
            observabilityFromFlags(flags);
    return rows;
}

namespace
{

/** The measurement budgets and seed every simulating figure takes. */
ExperimentParams
paramsFromFlags(const Flags &flags)
{
    ExperimentParams params;
    params.measureInsts = flags.getUnsigned<std::uint64_t>("insts");
    fatal_if(params.measureInsts == 0,
             "flag --insts must be at least 1 (a zero budget measures "
             "nothing)");
    params.warmupInsts = flags.getUnsigned<std::uint64_t>("warmup");
    params.seed = flags.getUnsigned<std::uint64_t>("seed");
    return params;
}

/** Run every planned cell of @p sweep on @p jobs workers, replacing
 *  any runs a previous call left. */
void
runPlanned(Sweep &sweep, const ExperimentParams &params, unsigned jobs)
{
    ParallelExperimentRunner runner(params, jobs);
    for (const SweepRow &row : sweep.rows) {
        for (const PlannedCell &cell : row.cells)
            runner.submitMix(cell.config, row.mix, cell.perConfigBaselines);
    }
    runner.run();

    // Jobs were submitted row by row, cell by cell.
    std::size_t id = 0;
    for (SweepRow &row : sweep.rows) {
        row.runs.clear();
        for (std::size_t c = 0; c < row.cells.size(); ++c)
            row.runs.push_back(runner.mixResult(id++));
    }
    sweep.simulations = runner.submitted() + runner.baselineSimulations();
}

void
printBanner(const FigureSpec &spec, const std::string &mix)
{
    std::printf("== %s ==\n", title(spec, mix).c_str());
    if (!spec.claim.empty())
        std::printf("paper: %s\n", spec.claim.c_str());
    std::printf("\n");
}

} // namespace

Sweep
runSweep(const FigureSpec &spec, const Flags &flags, unsigned jobs,
         const std::vector<std::string> &keep)
{
    const ExperimentParams params = paramsFromFlags(flags);
    Sweep sweep;
    sweep.rows = planSweep(spec, flags, keep);
    runPlanned(sweep, params, jobs);
    return sweep;
}

int
runFigure(const FigureSpec &spec, const std::vector<std::string> &args)
{
    const Flags flags = figureFlags(spec, args);
    if (!spec.simulates()) {
        printBanner(spec, "");
        spec.report(Sweep{}, flags);
        return 0;
    }
    if (flags.getBool("quiet"))
        setLogVerbosity(LogVerbosity::Quiet);
    // Read every flag, the cells' own included, before the banner: a
    // bad value then dies with nothing on stdout.
    const unsigned jobs = jobsFromFlags(flags);
    const ExperimentParams params = paramsFromFlags(flags);
    Sweep sweep;
    sweep.rows = planSweep(spec, flags);
    printBanner(spec, sweep.rows.empty() ? "" : sweep.rows[0].mix.name);

    // With --bench-json the same sweep runs twice, serial then
    // parallel, and the wall-clock ratio lands in the JSON.  The
    // report comes from the last run; results are byte-identical
    // either way.
    const std::string bench_json = flags.getString("bench-json");
    if (!bench_json.empty()) {
        using clock = std::chrono::steady_clock;
        const auto s0 = clock::now();
        runPlanned(sweep, params, 1);
        const auto s1 = clock::now();
        runPlanned(sweep, params, jobs);
        const auto s2 = clock::now();
        const std::chrono::duration<double> serial = s1 - s0;
        const std::chrono::duration<double> parallel = s2 - s1;
        writeThroughputJson(bench_json, spec.name, jobs,
                            sweep.simulations, serial.count(),
                            parallel.count());
    } else {
        runPlanned(sweep, params, jobs);
    }
    spec.report(sweep, flags);
    return 0;
}

} // namespace smtdram
