/** @file Unit tests for the memory access scheduling policies. */

#include <gtest/gtest.h>

#include <utility>

#include "common/random.hh"
#include "dram/scheduler.hh"

namespace smtdram
{
namespace
{

/** Candidate factory with sensible defaults. */
struct Cand {
    DramRequest req;

    Cand(std::uint64_t id, Cycle arrival,
         RequestKind kind = RequestKind::Read)
    {
        req.id = id;
        req.arrival = arrival;
        req.kind = kind;
        req.thread = 0;
    }
};

SchedCandidate
view(const Cand &c, bool hit = false, bool idle = false)
{
    SchedCandidate v;
    v.req = &c.req;
    v.rowHit = hit;
    v.bankIdle = idle;
    return v;
}

TEST(SchedulerNames, RoundTrip)
{
    for (SchedulerKind kind : allSchedulerKindsExtended())
        EXPECT_EQ(schedulerFromName(schedulerName(kind)), kind);
    EXPECT_EQ(schedulerFromName("hit-first"), SchedulerKind::HitFirst);
    EXPECT_EQ(schedulerFromName("IQ"), SchedulerKind::IqBased);
    EXPECT_EQ(schedulerFromName("rob_based"), SchedulerKind::RobBased);
}

TEST(SchedulerNamesDeathTest, UnknownNameFatal)
{
    EXPECT_EXIT((void)schedulerFromName("bogus"),
                testing::ExitedWithCode(1), "unknown scheduler");
}

TEST(Fcfs, PicksOldestRead)
{
    Cand a(1, 100), b(2, 50), c(3, 75);
    std::vector<SchedCandidate> cands = {view(a), view(b), view(c)};
    EXPECT_EQ(pickCandidate(SchedulerKind::Fcfs, cands, 3), 1u);
}

TEST(Fcfs, ReadsBypassOlderWrites)
{
    Cand w(1, 10, RequestKind::Write), r(2, 99, RequestKind::Read);
    std::vector<SchedCandidate> cands = {view(w), view(r)};
    EXPECT_EQ(pickCandidate(SchedulerKind::Fcfs, cands, 2), 1u);
}

TEST(Fcfs, IgnoresRowHits)
{
    Cand old_miss(1, 10), young_hit(2, 20);
    std::vector<SchedCandidate> cands = {view(old_miss, false),
                                         view(young_hit, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::Fcfs, cands, 2), 0u);
}

TEST(HitFirst, HitBeatsOlderMiss)
{
    Cand old_miss(1, 10), young_hit(2, 500);
    std::vector<SchedCandidate> cands = {view(old_miss, false),
                                         view(young_hit, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::HitFirst, cands, 2), 1u);
}

TEST(HitFirst, IdleBankBeatsConflict)
{
    Cand conflict(1, 10), idle(2, 20);
    std::vector<SchedCandidate> cands = {view(conflict, false, false),
                                         view(idle, false, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::HitFirst, cands, 2), 1u);
}

TEST(HitFirst, ReadFirstWithinHitClass)
{
    Cand w(1, 10, RequestKind::Write), r(2, 20, RequestKind::Read);
    std::vector<SchedCandidate> cands = {view(w, true), view(r, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::HitFirst, cands, 2), 1u);
}

TEST(HitFirst, ArrivalBreaksTies)
{
    Cand a(1, 30), b(2, 20);
    std::vector<SchedCandidate> cands = {view(a, true), view(b, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::HitFirst, cands, 2), 1u);
}

TEST(AgeBased, HitFirstUnderLightLoad)
{
    Cand old_miss(1, 10), young_hit(2, 500);
    std::vector<SchedCandidate> cands = {view(old_miss, false),
                                         view(young_hit, true)};
    // At the threshold, not above.
    EXPECT_EQ(pickCandidate(SchedulerKind::AgeBased, cands, 8), 1u);
}

TEST(AgeBased, OldestFirstUnderPressure)
{
    // Paper: the oldest request is promoted when more than eight
    // requests are outstanding at the controller.
    Cand old_miss(1, 10), young_hit(2, 500);
    std::vector<SchedCandidate> cands = {view(old_miss, false),
                                         view(young_hit, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::AgeBased, cands, 9), 0u);
}

Cand
withSnap(std::uint64_t id, Cycle arrival, std::uint32_t outstanding,
         std::uint32_t rob, std::uint32_t iq, ThreadId tid)
{
    Cand c(id, arrival);
    c.req.thread = tid;
    c.req.snap.outstandingRequests = outstanding;
    c.req.snap.robOccupancy = rob;
    c.req.snap.iqOccupancy = iq;
    return c;
}

TEST(RequestBased, FewestOutstandingWins)
{
    Cand heavy = withSnap(1, 10, 12, 0, 0, 0);
    Cand light = withSnap(2, 90, 2, 0, 0, 1);
    std::vector<SchedCandidate> cands = {view(heavy), view(light)};
    EXPECT_EQ(pickCandidate(SchedulerKind::RequestBased, cands, 2), 1u);
}

TEST(RequestBased, HitFirstLeadsThreadKey)
{
    // Section 3.2: a read hit beats a read miss even when the miss
    // comes from the thread with fewer pending requests.
    Cand heavy_hit = withSnap(1, 10, 12, 0, 0, 0);
    Cand light_miss = withSnap(2, 5, 1, 0, 0, 1);
    std::vector<SchedCandidate> cands = {view(heavy_hit, true),
                                         view(light_miss, false)};
    EXPECT_EQ(pickCandidate(SchedulerKind::RequestBased, cands, 2), 0u);
}

TEST(RobBased, MostRobOccupancyWins)
{
    Cand small = withSnap(1, 10, 0, 30, 0, 0);
    Cand big = withSnap(2, 90, 0, 200, 0, 1);
    std::vector<SchedCandidate> cands = {view(small), view(big)};
    EXPECT_EQ(pickCandidate(SchedulerKind::RobBased, cands, 2), 1u);
}

TEST(IqBased, MostIqOccupancyWins)
{
    Cand small = withSnap(1, 10, 0, 0, 3, 0);
    Cand big = withSnap(2, 90, 0, 0, 40, 1);
    std::vector<SchedCandidate> cands = {view(small), view(big)};
    EXPECT_EQ(pickCandidate(SchedulerKind::IqBased, cands, 2), 1u);
}

TEST(ThreadAware, WritebacksRankAfterThreadRequests)
{
    // A writeback carries no thread; within the same hit/read class
    // it must not outrank thread-owned requests.
    for (SchedulerKind kind :
         {SchedulerKind::RequestBased, SchedulerKind::RobBased,
          SchedulerKind::IqBased}) {
        Cand wb(1, 5, RequestKind::Read);  // same class, no thread
        wb.req.thread = kThreadNone;
        Cand owned = withSnap(2, 50, 15, 1, 1, 3);
        std::vector<SchedCandidate> cands = {view(wb), view(owned)};
        EXPECT_EQ(pickCandidate(kind, cands, 2), 1u)
            << schedulerName(kind);
    }
}

TEST(AllSchedulers, DeterministicOnIdenticalKeys)
{
    // Fully tied candidates resolve by id, so repeated calls agree.
    for (SchedulerKind kind : allSchedulerKindsExtended()) {
        Cand a(7, 10), b(9, 10);
        std::vector<SchedCandidate> cands = {view(a), view(b)};
        const size_t first = pickCandidate(kind, cands, 2);
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(pickCandidate(kind, cands, 2), first);
        EXPECT_EQ(first, 0u);  // lower id wins ties
    }
}

TEST(AllSchedulers, SingleCandidateAlwaysPicked)
{
    for (SchedulerKind kind : allSchedulerKindsExtended()) {
        Cand only(1, 10);
        std::vector<SchedCandidate> cands = {view(only)};
        EXPECT_EQ(pickCandidate(kind, cands, 20), 0u);
    }
}

TEST(AllSchedulers, PickIgnoresCandidateOrder)
{
    // The controller gathers its queues in a fixed order (reads,
    // mitigations, escalated scrubs, writes, fresh scrubs); the winner
    // must depend only on the candidates, never on that order.
    Rng rng(2005);
    for (SchedulerKind kind : allSchedulerKindsExtended()) {
        for (int trial = 0; trial < 64; ++trial) {
            const size_t n = 2 + rng.below(15);
            std::vector<Cand> reqs;
            reqs.reserve(n);
            std::vector<SchedCandidate> cands;
            for (size_t i = 0; i < n; ++i) {
                // Few distinct arrivals and snapshot values, so ties
                // on the leading criteria are common.
                Cand c(i + 1, rng.below(6));
                switch (rng.below(4)) {
                  case 0:
                    c.req.thread = rng.chance(0.25)
                                       ? kThreadNone
                                       : static_cast<ThreadId>(
                                             rng.below(4));
                    break;
                  case 1:
                    c.req.kind = RequestKind::Write;
                    c.req.thread = kThreadNone;
                    break;
                  case 2:
                    c.req.kind = RequestKind::Scrub;
                    c.req.thread = kThreadNone;
                    break;
                  default:
                    c.req.kind = RequestKind::Mitigation;
                    c.req.thread = kThreadNone;
                    break;
                }
                c.req.snap.outstandingRequests =
                    static_cast<std::uint32_t>(rng.below(4));
                c.req.snap.robOccupancy =
                    static_cast<std::uint32_t>(rng.below(4));
                c.req.snap.iqOccupancy =
                    static_cast<std::uint32_t>(rng.below(4));
                c.req.critical = rng.chance(0.5);
                reqs.push_back(c);
            }
            for (const Cand &c : reqs) {
                // Row hit, idle bank or conflict.
                const std::uint64_t bank_state = rng.below(3);
                cands.push_back(view(c, bank_state == 0, bank_state == 1));
            }
            // Both sides of age-based's pressure threshold.
            const size_t queued = trial % 2 ? 1 + rng.below(8)
                                            : 9 + rng.below(24);
            const auto winner = [&] {
                return cands[pickCandidate(kind, cands, queued)].req->id;
            };
            const std::uint64_t first = winner();
            for (int round = 0; round < 8; ++round) {
                for (size_t i = cands.size() - 1; i > 0; --i)
                    std::swap(cands[i], cands[rng.below(i + 1)]);
                EXPECT_EQ(winner(), first)
                    << schedulerName(kind) << " trial " << trial;
            }
        }
    }
}

TEST(CriticalityBased, CriticalReadLeadsWithinClass)
{
    Cand store_fill(1, 10);
    store_fill.req.critical = false;
    Cand demand_load(2, 50);
    demand_load.req.critical = true;
    std::vector<SchedCandidate> cands = {view(store_fill),
                                         view(demand_load)};
    EXPECT_EQ(pickCandidate(SchedulerKind::CriticalityBased, cands, 2), 1u);
}

TEST(CriticalityBased, HitFirstStillLeads)
{
    Cand critical_miss(1, 10);
    critical_miss.req.critical = true;
    Cand noncritical_hit(2, 50);
    noncritical_hit.req.critical = false;
    std::vector<SchedCandidate> cands = {
        view(critical_miss, false), view(noncritical_hit, true)};
    EXPECT_EQ(pickCandidate(SchedulerKind::CriticalityBased, cands, 2), 1u);
}

TEST(SchedulerNames, ExtendedListIncludesCriticality)
{
    const auto &extended = allSchedulerKindsExtended();
    EXPECT_EQ(extended.size(), allSchedulerKinds().size() + 1);
    EXPECT_EQ(schedulerFromName("criticality"),
              SchedulerKind::CriticalityBased);
    EXPECT_EQ(schedulerName(SchedulerKind::CriticalityBased),
              "Criticality");
}

} // namespace
} // namespace smtdram
