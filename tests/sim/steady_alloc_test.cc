/**
 * @file
 * Steady-state heap-allocation gate for the request hot path.
 *
 * This binary replaces the global allocation operators with counting
 * wrappers, warms a memory system to its high-water occupancy, and
 * then asserts that continued traffic allocates NOTHING: the request
 * pool reuses slabs, the queues reuse their reserved storage, and the
 * per-tick scratch vectors reuse their capacity.  A per-request or
 * per-cycle allocation sneaking back into the hot path turns into
 * thousands of counted calls here, so the gate cannot miss it.
 *
 * Lives in its own test binary (alloc_test) because the operator
 * new/delete replacement is process-global.
 */

#include <gtest/gtest.h>

#include <execinfo.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/random.hh"
#include "dram/dram_system.hh"
#include "sim/smt_system.hh"
#include "workload/spec2000.hh"

namespace
{

std::atomic<std::uint64_t> g_allocCalls{0};
/** With SMTDRAM_ALLOC_TRACE set, backtraces left to dump to stderr. */
std::atomic<long> g_traceBudget{0};
/** Allocations to let pass before dumping (skips boundary noise). */
std::atomic<long> g_traceSkip{0};

void *
countedAlloc(std::size_t size)
{
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
    if (g_traceBudget.load(std::memory_order_relaxed) > 0) {
        if (g_traceSkip.load(std::memory_order_relaxed) > 0) {
            g_traceSkip.fetch_sub(1, std::memory_order_relaxed);
        } else if (g_traceBudget.fetch_sub(
                       1, std::memory_order_relaxed) > 0) {
            // backtrace_symbols_fd writes straight to the fd, so the
            // dump itself never re-enters operator new.
            void *frames[32];
            const int n = backtrace(frames, 32);
            backtrace_symbols_fd(frames, n, 2);
        }
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

/**
 * Arm the backtrace dump when SMTDRAM_ALLOC_TRACE=N is set: the next
 * N allocations in the measured window pass silently, then the eight
 * after that dump their stacks (N=0 dumps from the first).
 */
void
armAllocTrace()
{
    const char *env = std::getenv("SMTDRAM_ALLOC_TRACE");
    if (!env)
        return;
    g_traceSkip.store(std::atol(env), std::memory_order_relaxed);
    g_traceBudget.store(8, std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace smtdram
{
namespace
{

std::uint64_t
allocCalls()
{
    return g_allocCalls.load(std::memory_order_relaxed);
}

/** Drive @p dram with a fixed random mix for @p cycles cycles. */
Cycle
driveTraffic(DramSystem &dram, Rng &rng, Cycle now, Cycle cycles)
{
    const Cycle end = now + cycles;
    while (now < end) {
        ++now;
        if (rng.chance(0.6)) {
            const Addr addr = rng.below(1ULL << 28) & ~63ULL;
            if (rng.chance(0.8)) {
                if (dram.canAccept(addr, MemOp::Read)) {
                    ThreadSnapshot snap;
                    snap.outstandingRequests =
                        static_cast<std::uint32_t>(rng.below(8));
                    dram.enqueueRead(
                        addr, static_cast<ThreadId>(rng.below(4)),
                        snap, now);
                }
            } else if (dram.canAccept(addr, MemOp::Write)) {
                dram.enqueueWrite(addr, now);
            }
        }
        dram.tick(now);
    }
    return now;
}

TEST(ZeroAllocTest, DramSteadyStateAllocatesNothing)
{
    DramConfig config = DramConfig::ddrSdram(2);
    DramSystem dram(config, SchedulerKind::HitFirst);
    Rng rng(91);

    // Warm to high water: saturating traffic grows the pool slabs,
    // the queues' reserved storage, and every stats container to
    // their final footprint.
    Cycle now = driveTraffic(dram, rng, 0, 60'000);

    const std::uint64_t before = allocCalls();
    armAllocTrace();
    now = driveTraffic(dram, rng, now, 60'000);
    const std::uint64_t after = allocCalls();

    EXPECT_EQ(after - before, 0u)
        << "request hot path allocated " << (after - before)
        << " time(s) in steady state";

    while (dram.busy())
        dram.tick(++now);
}

TEST(ZeroAllocTest, DramSteadyStateWithRefreshAllocatesNothing)
{
    // Refresh and the retire/retry path exercise queue re-entry; the
    // rebuilt queue entries must come out of reserved storage too.
    DramConfig config = DramConfig::ddrSdram(1).withRefresh(5'000, 120);
    DramSystem dram(config, SchedulerKind::Fcfs);
    Rng rng(17);

    Cycle now = driveTraffic(dram, rng, 0, 60'000);

    const std::uint64_t before = allocCalls();
    now = driveTraffic(dram, rng, now, 60'000);
    const std::uint64_t after = allocCalls();

    EXPECT_EQ(after - before, 0u);

    while (dram.busy())
        dram.tick(++now);
}

/**
 * Full-system variant, both kernels, as a differential: run() has a
 * fixed boundary cost (RunResult vectors, the resetStats histogram
 * rebuild at the measurement boundary) that is independent of run
 * length, so instead of a brittle absolute bound we compare a short
 * and a long warmed run.  The boundary cost cancels; a per-cycle or
 * per-request allocation would scale with the extra 10k measured
 * cycles and blow the margin by orders of magnitude.
 */
void
runBothPhases(KernelMode kernel)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    config.kernel = kernel;
    const std::vector<AppProfile> apps = {specProfile("mcf"),
                                          specProfile("swim")};
    SmtSystem system(config, apps, 42);

    // First run warms every container to its high-water footprint.
    system.run(14'000, 1'000);

    const std::uint64_t beforeShort = allocCalls();
    system.run(4'000, 1'000);
    const std::uint64_t shortRun = allocCalls() - beforeShort;

    const std::uint64_t beforeLong = allocCalls();
    armAllocTrace();
    system.run(14'000, 1'000);
    const std::uint64_t longRun = allocCalls() - beforeLong;

    // The whole machine is allocation-free once warm: the DRAM request
    // path (asserted at the DramSystem layer above), the core's
    // completion ring and miss-waiter table, the hierarchy's MSHR-slot
    // miss table, 16-byte fill events (stored inline by std::function)
    // and the flat TLBs all reuse reserved storage.  What may remain
    // is first-touch growth: a page-table or event-queue high-water
    // mark the longer run reaches for the first time.  One allocation
    // per cycle, per instruction or per miss anywhere in the machine
    // adds thousands and fails.
    const std::int64_t excess = static_cast<std::int64_t>(longRun) -
                                static_cast<std::int64_t>(shortRun);
    EXPECT_LE(excess, 64)
        << "10k extra measured cycles cost " << excess
        << " extra allocation(s): something new allocates per cycle "
        << "or per request (short run " << shortRun << ", long run "
        << longRun << ")";
}

TEST(ZeroAllocTest, SmtRunSteadyStateBoundedPerCycleKernel)
{
    runBothPhases(KernelMode::PerCycle);
}

TEST(ZeroAllocTest, SmtRunSteadyStateBoundedEventKernel)
{
    runBothPhases(KernelMode::EventDriven);
}

} // namespace
} // namespace smtdram
