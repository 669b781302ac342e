/**
 * @file
 * Tests for the Chrome trace-event writer: document structure,
 * timestamp monotonicity, lifecycle-span conservation, and the
 * bounded-buffer drop accounting.
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

} // namespace
} // namespace smtdram
