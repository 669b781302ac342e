/**
 * @file
 * Tests for the Chrome trace-event writer: document structure,
 * timestamp monotonicity, lifecycle-span conservation, the
 * controller's rank<r>.power tracks, and the bounded-buffer drop
 * accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace_event.hh"
#include "dram/dram_config.hh"
#include "dram/address_mapping.hh"
#include "dram/memory_controller.hh"
#include "temp_path.hh"

namespace smtdram
{
namespace
{

/** Unique temp path per test process, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_(testArtifactPath(tag + ".json"))
    {
        std::remove(path_.c_str());
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

    std::string
    contents() const
    {
        std::ifstream in(path_);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

  private:
    std::string path_;
};

/** Every line containing @p key, in file order. */
std::vector<std::string>
linesContaining(const std::string &text, const std::string &key)
{
    std::vector<std::string> out;
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
        if (line.find(key) != std::string::npos)
            out.push_back(line);
    }
    return out;
}

/** Value of a numeric JSON field on one event line, e.g. "ts".
 *  Accepts string-wrapped numbers too (async ids are strings). */
std::uint64_t
numericField(const std::string &line, const std::string &field)
{
    const std::string needle = "\"" + field + "\":";
    const size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << field << " in " << line;
    const char *p = line.c_str() + at + needle.size();
    if (*p == '"')
        ++p;
    return std::strtoull(p, nullptr, 10);
}

TEST(Tracer, WritesWellFormedDocument)
{
    TempFile tmp("basic");
    {
        Tracer t(tmp.path());
        t.nameProcess(kTracePidCpu, "cpu");
        t.nameThread(kTracePidCpu, 0, "thread0");
        t.slice(kTracePidCpu, 0, "work", 10, 5);
        t.instant(kTracePidCpu, 0, "tick", 12);
        t.counter(kTracePidCpu, "occupancy", 14, 3.0);
        t.flush();
    }
    const std::string doc = tmp.contents();

    // Loadable by chrome://tracing: one top-level object with a
    // traceEvents array; braces and brackets balance.
    EXPECT_EQ(doc.find("{\"displayTimeUnit\""), 0u);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));

    // Metadata names the track; each phase appears once.
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_EQ(linesContaining(doc, "\"ph\":\"X\"").size(), 1u);
    EXPECT_EQ(linesContaining(doc, "\"ph\":\"i\"").size(), 1u);
    EXPECT_EQ(linesContaining(doc, "\"ph\":\"C\"").size(), 1u);
}

TEST(Tracer, FlushSortsTimestampsMonotonically)
{
    TempFile tmp("monotonic");
    Tracer t(tmp.path());
    // Emit deliberately out of order, as retire-time instrumentation
    // does (completion events carry earlier arrival timestamps).
    t.instant(kTracePidCpu, 0, "c", 30);
    t.instant(kTracePidCpu, 0, "a", 10);
    t.instant(kTracePidCpu, 0, "b", 20);
    t.flush();

    const auto events =
        linesContaining(tmp.contents(), "\"ph\":\"i\"");
    ASSERT_EQ(events.size(), 3u);
    std::uint64_t prev = 0;
    for (const std::string &line : events) {
        const std::uint64_t ts = numericField(line, "ts");
        EXPECT_GE(ts, prev);
        prev = ts;
    }
}

TEST(Tracer, FlushIsRepeatableAndComplete)
{
    TempFile tmp("reflush");
    Tracer t(tmp.path());
    t.instant(kTracePidCpu, 0, "first", 1);
    t.flush();
    const auto once = linesContaining(tmp.contents(), "\"ph\":\"i\"");
    t.instant(kTracePidCpu, 0, "second", 2);
    t.flush();
    const auto twice = linesContaining(tmp.contents(), "\"ph\":\"i\"");
    // Each flush rewrites the whole document — no duplication, no
    // truncation — so a panic-path flush mid-run stays loadable.
    EXPECT_EQ(once.size(), 1u);
    EXPECT_EQ(twice.size(), 2u);
}

TEST(Tracer, BoundedBufferCountsDrops)
{
    TempFile tmp("drops");
    Tracer t(tmp.path(), /*capacity=*/4);
    for (Cycle c = 0; c < 10; ++c)
        t.instant(kTracePidCpu, 0, "e", c);
    EXPECT_EQ(t.eventCount(), 4u);
    EXPECT_EQ(t.droppedEvents(), 6u);
    t.flush();
    EXPECT_NE(tmp.contents().find("\"droppedEvents\":6"),
              std::string::npos);
}

/**
 * Lifecycle conservation at the source: drive a controller to
 * completion and require every request's async span to open exactly
 * once and close exactly once, with begin <= end.
 */
TEST(Tracer, ControllerLifecycleSpansConserve)
{
    TempFile tmp("lifecycle");
    DramConfig config = DramConfig::ddrSdram(1);
    AddressMapping mapping(config);
    MemoryController mc(config, SchedulerKind::HitFirst);
    Tracer tracer(tmp.path());
    mc.setTracer(&tracer);

    Cycle now = 0;
    std::uint64_t id = 1;
    std::vector<DramRequest> completed;
    std::uint64_t delivered = 0;
    for (; now < 4000; ++now) {
        if (now % 7 == 0 && mc.canAcceptRead()) {
            DramRequest req;
            req.id = id++;
            req.kind = RequestKind::Read;
            req.addr = (now * 4096 + 64 * (now % 11)) & ~63ULL;
            req.thread = static_cast<ThreadId>(now % 4);
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            mc.enqueue(req);
        }
        completed.clear();
        mc.tick(now, completed);
        delivered += completed.size();
    }
    while (mc.busy()) {
        completed.clear();
        mc.tick(++now, completed);
        delivered += completed.size();
    }
    tracer.flush();
    ASSERT_GT(delivered, 0u);

    const std::string doc = tmp.contents();
    const auto begins = linesContaining(doc, "\"ph\":\"b\"");
    const auto ends = linesContaining(doc, "\"ph\":\"e\"");
    EXPECT_EQ(begins.size(), delivered);
    EXPECT_EQ(ends.size(), delivered);

    // Every begin id has exactly one terminal event with a later or
    // equal timestamp.
    std::map<std::uint64_t, std::uint64_t> begin_ts, end_ts;
    for (const std::string &line : begins) {
        const std::uint64_t rid = numericField(line, "id");
        EXPECT_EQ(begin_ts.count(rid), 0u) << "duplicate begin " << rid;
        begin_ts[rid] = numericField(line, "ts");
    }
    for (const std::string &line : ends) {
        const std::uint64_t rid = numericField(line, "id");
        EXPECT_EQ(end_ts.count(rid), 0u) << "duplicate end " << rid;
        end_ts[rid] = numericField(line, "ts");
    }
    ASSERT_EQ(begin_ts.size(), end_ts.size());
    for (const auto &[rid, ts] : begin_ts) {
        ASSERT_EQ(end_ts.count(rid), 1u) << "unterminated span " << rid;
        EXPECT_LE(ts, end_ts[rid]);
    }
}

/** Value of a string JSON field on one event line, e.g. "name". */
std::string
stringField(const std::string &line, const std::string &field)
{
    const std::string needle = "\"" + field + "\":\"";
    const size_t at = line.find(needle);
    EXPECT_NE(at, std::string::npos) << field << " in " << line;
    if (at == std::string::npos)
        return "";
    const size_t from = at + needle.size();
    return line.substr(from, line.find('"', from) - from);
}

/** Serve one read of bank 0, row @p row, arriving at @p arrival. */
DramRequest
readToCompletion(MemoryController &mc, std::uint64_t id,
                 std::uint32_t row, Cycle arrival)
{
    DramRequest req;
    req.id = id;
    req.kind = RequestKind::Read;
    req.coord = {0, 0, row, 0};
    req.arrival = arrival;
    mc.enqueue(req);
    std::vector<DramRequest> done;
    for (Cycle now = arrival; done.empty(); ++now)
        mc.tick(now, done);
    return done.front();
}

/** The rank0.power track of one traced idle-then-wake run. */
struct RankPowerTrack {
    /** Cycle the first read released its rank; idling starts here. */
    Cycle busyUntil = 0;
    /** Cycle the second read's launch woke the rank. */
    Cycle wake = 0;
    std::vector<std::string> slices;   ///< "ph":"X" lines, ts order
    std::vector<std::string> instants; ///< "ph":"i" lines, ts order
    bool named = false;                ///< thread named "rank0.power"
};

/**
 * A one-channel controller with the power machine on serves a read,
 * idles @p idle cycles past the rank's release, then serves a second
 * read to another row of the same bank.
 */
RankPowerTrack
traceIdleThenWake(const DramConfig &config, Cycle idle)
{
    TempFile tmp("rank_power");
    MemoryController mc(config, SchedulerKind::HitFirst, 0);
    Tracer tracer(tmp.path());
    mc.setTracer(&tracer);

    RankPowerTrack t;
    const DramRequest first = readToCompletion(mc, 1, 0, 1);
    // Open page: the bank, and with it the rank, frees as the burst
    // ends, a controller overhead before the read completes.
    t.busyUntil = first.completion - config.timing.controllerOverhead;
    const DramRequest second =
        readToCompletion(mc, 2, 1, t.busyUntil + idle);
    t.wake = second.issueTime;
    tracer.flush();

    const std::string track =
        "\"pid\":" + std::to_string(tracePidChannel(0)) +
        ",\"tid\":" + std::to_string(traceTidRankPower(0)) + ",";
    for (const std::string &line : linesContaining(tmp.contents(), track)) {
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            t.slices.push_back(line);
        else if (line.find("\"ph\":\"i\"") != std::string::npos)
            t.instants.push_back(line);
        else if (line.find("\"thread_name\"") != std::string::npos)
            t.named = line.find("\"rank0.power\"") != std::string::npos;
    }
    return t;
}

DramConfig
powerManagedConfig()
{
    DramConfig c = DramConfig::ddrSdram(1);
    c.power.enabled = true;
    c.validate();
    return c;
}

/**
 * The rank<r>.power track README documents: a wake out of
 * self-refresh emits, retroactively, one slice per low-power state
 * the idle window crossed, each starting where its idle threshold
 * fell, the deepest ending at the wake, plus one exit instant that
 * carries the exit latency.
 */
TEST(Tracer, RankPowerTrackShowsEveryStateCrossed)
{
    const DramConfig c = powerManagedConfig();
    const PowerConfig &p = c.power;
    const RankPowerTrack t =
        traceIdleThenWake(c, p.selfRefreshIdle + 100);
    EXPECT_TRUE(t.named);
    EXPECT_GE(t.wake, t.busyUntil + p.selfRefreshIdle + 100);

    ASSERT_EQ(t.slices.size(), 3u);
    const char *names[] = {"powerdown-fast", "powerdown-slow",
                           "self-refresh"};
    const Cycle starts[] = {t.busyUntil + p.powerdownIdle,
                            t.busyUntil + p.slowExitIdle,
                            t.busyUntil + p.selfRefreshIdle};
    const Cycle ends[] = {starts[1], starts[2], t.wake};
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(names[i]);
        EXPECT_EQ(stringField(t.slices[i], "name"), names[i]);
        EXPECT_EQ(numericField(t.slices[i], "ts"), starts[i]);
        EXPECT_EQ(numericField(t.slices[i], "ts") +
                      numericField(t.slices[i], "dur"),
                  ends[i]);
    }

    ASSERT_EQ(t.instants.size(), 1u);
    EXPECT_EQ(stringField(t.instants[0], "name"), "sr-exit");
    EXPECT_EQ(numericField(t.instants[0], "ts"), t.wake);
    EXPECT_NE(t.instants[0].find("\"args\":{\"penalty\":" +
                                 std::to_string(p.exitSelfRefresh) + "}"),
              std::string::npos)
        << t.instants[0];
    EXPECT_EQ(p.exitSelfRefresh, 540u);  // tXSNR at the core clock
}

/** A wake inside fast powerdown shows that state and its exit only. */
TEST(Tracer, RankPowerTrackShowsFastPowerdownWake)
{
    const DramConfig c = powerManagedConfig();
    const PowerConfig &p = c.power;
    const RankPowerTrack t = traceIdleThenWake(c, p.powerdownIdle + 10);
    EXPECT_TRUE(t.named);

    ASSERT_EQ(t.slices.size(), 1u);
    EXPECT_EQ(stringField(t.slices[0], "name"), "powerdown-fast");
    EXPECT_EQ(numericField(t.slices[0], "ts"),
              t.busyUntil + p.powerdownIdle);
    EXPECT_EQ(numericField(t.slices[0], "ts") +
                  numericField(t.slices[0], "dur"),
              t.wake);

    ASSERT_EQ(t.instants.size(), 1u);
    EXPECT_EQ(stringField(t.instants[0], "name"), "pd-exit");
    EXPECT_EQ(numericField(t.instants[0], "ts"), t.wake);
    EXPECT_NE(t.instants[0].find("\"args\":{\"penalty\":" +
                                 std::to_string(p.exitFast) + "}"),
              std::string::npos)
        << t.instants[0];
}

} // namespace
} // namespace smtdram
