/**
 * @file
 * RequestPool: slab allocation, handle generations, and the pointer
 * stability the controller's candidate views rely on.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "dram/request_pool.hh"

namespace smtdram
{
namespace
{

DramRequest
makeReq(std::uint64_t id)
{
    DramRequest req;
    req.id = id;
    req.kind = RequestKind::Read;
    req.addr = id * 64;
    return req;
}

TEST(RequestPool, AllocThenAtReturnsTheRequest)
{
    RequestPool pool;
    const ReqHandle h = pool.alloc(makeReq(7));
    EXPECT_TRUE(h.valid());
    EXPECT_EQ(pool.at(h).id, 7u);
    EXPECT_EQ(pool.live(), 1u);
}

TEST(RequestPool, ReleaseReusesTheSlotWithABumpedGeneration)
{
    RequestPool pool;
    const ReqHandle first = pool.alloc(makeReq(1));
    pool.release(first);
    EXPECT_EQ(pool.live(), 0u);

    const ReqHandle second = pool.alloc(makeReq(2));
    // LIFO free list: the freed slot comes right back...
    EXPECT_EQ(second.slot, first.slot);
    // ...under a new generation, so the old handle stays dead.
    EXPECT_NE(second.gen, first.gen);
    EXPECT_EQ(pool.at(second).id, 2u);
}

TEST(RequestPoolDeath, StaleHandleAfterReleaseDies)
{
    RequestPool pool;
    const ReqHandle h = pool.alloc(makeReq(1));
    pool.release(h);
    EXPECT_DEATH(pool.at(h), "stale request handle");
}

TEST(RequestPoolDeath, StaleHandleAfterReuseDies)
{
    RequestPool pool;
    const ReqHandle old = pool.alloc(makeReq(1));
    pool.release(old);
    const ReqHandle fresh = pool.alloc(makeReq(2));
    ASSERT_EQ(fresh.slot, old.slot);
    // The slot is live again, but under the wrong generation the old
    // handle must still panic instead of aliasing request 2.
    EXPECT_DEATH(pool.at(old), "stale request handle");
}

TEST(RequestPoolDeath, OutOfRangeSlotDies)
{
    RequestPool pool;
    ReqHandle bogus;
    bogus.slot = 12345;
    bogus.gen = 0;
    EXPECT_DEATH(pool.at(bogus), "out of range");
}

TEST(RequestPool, PointersSurvivePoolGrowth)
{
    RequestPool pool;
    const ReqHandle h = pool.alloc(makeReq(42));
    const DramRequest *stable = &pool.at(h);

    // Force several slab growths; slabs are never moved or freed.
    std::vector<ReqHandle> handles;
    for (std::uint32_t i = 0; i < 5 * RequestPool::kSlabSlots; ++i)
        handles.push_back(pool.alloc(makeReq(100 + i)));

    EXPECT_EQ(stable, &pool.at(h));
    EXPECT_EQ(stable->id, 42u);
    for (const ReqHandle hh : handles)
        pool.release(hh);
    EXPECT_EQ(pool.at(h).id, 42u);
}

TEST(RequestPool, ReservePregrowsCapacity)
{
    RequestPool pool;
    EXPECT_EQ(pool.capacity(), 0u);
    pool.reserve(100);
    const std::size_t cap = pool.capacity();
    EXPECT_GE(cap, 100u);

    // The reserved slots are fully usable without further growth.
    std::vector<ReqHandle> handles;
    for (std::uint32_t i = 0; i < 100; ++i)
        handles.push_back(pool.alloc(makeReq(i)));
    EXPECT_EQ(pool.capacity(), cap);
    EXPECT_EQ(pool.live(), 100u);
}

TEST(RequestPool, AllocationOrderIsDeterministic)
{
    // Fresh slabs hand out ascending slots; determinism here keeps
    // run-to-run behavior (and goldens) independent of allocator
    // state.
    RequestPool pool;
    for (std::uint32_t i = 0; i < RequestPool::kSlabSlots; ++i) {
        const ReqHandle h = pool.alloc(makeReq(i));
        EXPECT_EQ(h.slot, i);
    }
}

} // namespace
} // namespace smtdram
