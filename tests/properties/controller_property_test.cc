/**
 * @file
 * Property-based tests of the memory controller: under every
 * scheduling policy and page mode, a random request storm must fully
 * complete with consistent timing invariants — no lost or duplicated
 * requests, completion after arrival, monotone bank/bus bookkeeping,
 * and exact row-access accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.hh"
#include "dram/address_mapping.hh"
#include "dram/memory_controller.hh"

namespace smtdram
{
namespace
{

struct ControllerCase {
    SchedulerKind scheduler;
    PageMode mode;
    bool rambus;
};

std::string
caseName(const testing::TestParamInfo<ControllerCase> &info)
{
    std::string name = schedulerName(info.param.scheduler);
    std::erase(name, '-');
    name += info.param.mode == PageMode::Open ? "_open" : "_close";
    name += info.param.rambus ? "_rdram" : "_ddr";
    return name;
}

class ControllerProperty
    : public testing::TestWithParam<ControllerCase>
{
  protected:
    DramConfig
    config() const
    {
        DramConfig c = GetParam().rambus
                           ? DramConfig::directRambus(1, 1)
                           : DramConfig::ddrSdram(1);
        c.pageMode = GetParam().mode;
        return c;
    }
};

TEST_P(ControllerProperty, RandomStormFullyCompletes)
{
    const DramConfig c = config();
    AddressMapping mapping(c);
    MemoryController mc(c, GetParam().scheduler);
    Rng rng(1234);

    constexpr int kRequests = 400;
    std::map<std::uint64_t, Cycle> arrivals;
    std::set<std::uint64_t> completed;

    int injected = 0;
    std::uint64_t next_id = 1;
    std::vector<DramRequest> done;
    Cycle now = 0;
    std::uint64_t reads = 0, writes = 0;

    while (completed.size() < kRequests) {
        ++now;
        ASSERT_LT(now, 2'000'000u) << "storm did not drain";
        // Poisson-ish arrivals, two per cycle max.
        for (int k = 0; k < 2 && injected < kRequests; ++k) {
            if (!rng.chance(0.3))
                continue;
            const bool is_read = rng.chance(0.7);
            if (is_read ? !mc.canAcceptRead() : !mc.canAcceptWrite())
                continue;
            DramRequest req;
            req.id = next_id++;
            req.kind = is_read ? RequestKind::Read : RequestKind::Write;
            req.addr = rng.below(1ULL << 26) & ~Addr{63};
            req.thread = static_cast<ThreadId>(rng.below(8));
            req.snap.outstandingRequests =
                static_cast<std::uint32_t>(rng.below(16));
            req.snap.robOccupancy =
                static_cast<std::uint32_t>(rng.below(256));
            req.snap.iqOccupancy =
                static_cast<std::uint32_t>(rng.below(64));
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            arrivals[req.id] = now;
            mc.enqueue(req);
            ++injected;
            (is_read ? reads : writes) += 1;
        }

        done.clear();
        mc.tick(now, done);
        for (const DramRequest &req : done) {
            // No duplicates, no inventions.
            ASSERT_TRUE(arrivals.count(req.id));
            ASSERT_TRUE(completed.insert(req.id).second);
            // Timing sanity.
            ASSERT_GE(req.issueTime, arrivals[req.id]);
            ASSERT_GT(req.completion, req.issueTime);
            ASSERT_LE(req.completion, now);
            // A transaction costs at least CAS + transfer.
            ASSERT_GE(req.completion - req.issueTime,
                      c.timing.columnAccess + c.lineTransferCycles());
        }
    }

    EXPECT_FALSE(mc.busy());
    EXPECT_EQ(mc.stats().reads, reads);
    EXPECT_EQ(mc.stats().writes, writes);
    EXPECT_EQ(mc.stats().rowHits + mc.stats().rowEmpty +
                  mc.stats().rowConflicts,
              static_cast<std::uint64_t>(kRequests));
    // The bus can never be busy longer than the elapsed time.
    EXPECT_LE(mc.stats().busBusyCycles, now);
}

/**
 * Conservation under fire: with fault injection (bus stalls, read
 * errors with retry, enqueue delays) and auto-refresh enabled, every
 * enqueued request must still complete exactly once.  A retried
 * transaction re-executes on the DRAM (stats.reads grows) but is
 * delivered to the caller a single time.
 */
TEST_P(ControllerProperty, ConservationHoldsUnderInjectedFaults)
{
    DramConfig c = config();
    c.withRefresh(5'000, 120);
    c.faults.enabled = true;
    c.faults.seed = 21;
    c.faults.busStallProbability = 0.002;
    c.faults.busStallCycles = 200;
    c.faults.readErrorProbability = 0.08;
    c.faults.maxRetries = 4;
    c.faults.retryBackoff = 16;
    c.faults.enqueueDelayProbability = 0.15;
    c.faults.enqueueDelayMax = 80;

    AddressMapping mapping(c);
    MemoryController mc(c, GetParam().scheduler);
    Rng rng(987);

    constexpr int kRequests = 300;
    std::map<std::uint64_t, Cycle> arrivals;
    std::set<std::uint64_t> completed;

    int injected = 0;
    std::uint64_t next_id = 1;
    std::vector<DramRequest> done;
    Cycle now = 0;
    std::uint64_t reads = 0;

    while (completed.size() < kRequests) {
        ++now;
        ASSERT_LT(now, 4'000'000u) << "faulted storm did not drain";
        for (int k = 0; k < 2 && injected < kRequests; ++k) {
            if (!rng.chance(0.3))
                continue;
            const bool is_read = rng.chance(0.7);
            if (is_read ? !mc.canAcceptRead() : !mc.canAcceptWrite())
                continue;
            DramRequest req;
            req.id = next_id++;
            req.kind = is_read ? RequestKind::Read : RequestKind::Write;
            req.addr = rng.below(1ULL << 26) & ~Addr{63};
            req.thread = static_cast<ThreadId>(rng.below(8));
            req.snap.outstandingRequests =
                static_cast<std::uint32_t>(rng.below(16));
            req.snap.robOccupancy =
                static_cast<std::uint32_t>(rng.below(256));
            req.snap.iqOccupancy =
                static_cast<std::uint32_t>(rng.below(64));
            req.arrival = now;
            req.coord = mapping.map(req.addr);
            arrivals[req.id] = now;
            mc.enqueue(req);
            ++injected;
            if (is_read)
                ++reads;
        }

        done.clear();
        mc.tick(now, done);
        for (const DramRequest &req : done) {
            // Exactly-once delivery, even through retries.
            ASSERT_TRUE(arrivals.count(req.id));
            ASSERT_TRUE(completed.insert(req.id).second);
            ASSERT_GE(req.issueTime, arrivals[req.id]);
            ASSERT_LE(req.completion, now);
            ASSERT_LE(req.retries, c.faults.maxRetries);
        }
    }

    EXPECT_FALSE(mc.busy());
    EXPECT_EQ(completed.size(),
              static_cast<size_t>(kRequests));  // enqueued == completed
    // Every retry re-executed the read on the DRAM.
    EXPECT_EQ(mc.stats().reads, reads + mc.stats().readRetries);
    // The storm is long enough that refresh provably ran.
    EXPECT_GT(mc.stats().refreshes, 0u);
}

/** The controller properties that hold in close-page mode only. */
class ClosePageProperty : public ControllerProperty
{
};

TEST_P(ClosePageProperty, NeverHits)
{
    const DramConfig c = config();
    AddressMapping mapping(c);
    MemoryController mc(c, GetParam().scheduler);

    std::vector<DramRequest> done;
    Cycle now = 0;
    // Same-row accesses back to back: open mode would hit.
    for (std::uint64_t i = 0; i < 10; ++i) {
        DramRequest req;
        req.id = i + 1;
        req.kind = RequestKind::Read;
        req.addr = i * 64;
        req.arrival = now;
        req.coord = mapping.map(req.addr);
        mc.enqueue(req);
        while (mc.busy()) {
            ++now;
            mc.tick(now, done);
        }
    }
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ControllerProperty,
    testing::Values(
        ControllerCase{SchedulerKind::Fcfs, PageMode::Open, false},
        ControllerCase{SchedulerKind::HitFirst, PageMode::Open, false},
        ControllerCase{SchedulerKind::AgeBased, PageMode::Open, false},
        ControllerCase{SchedulerKind::RequestBased, PageMode::Open,
                       false},
        ControllerCase{SchedulerKind::RobBased, PageMode::Open, false},
        ControllerCase{SchedulerKind::IqBased, PageMode::Open, false},
        ControllerCase{SchedulerKind::CriticalityBased, PageMode::Open,
                       false},
        ControllerCase{SchedulerKind::Fcfs, PageMode::Close, false},
        ControllerCase{SchedulerKind::HitFirst, PageMode::Close,
                       false},
        ControllerCase{SchedulerKind::HitFirst, PageMode::Open, true},
        ControllerCase{SchedulerKind::RequestBased, PageMode::Close,
                       true}),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    ClosePolicies, ClosePageProperty,
    testing::Values(
        ControllerCase{SchedulerKind::Fcfs, PageMode::Close, false},
        ControllerCase{SchedulerKind::HitFirst, PageMode::Close,
                       false},
        ControllerCase{SchedulerKind::RequestBased, PageMode::Close,
                       true}),
    caseName);

} // namespace
} // namespace smtdram
