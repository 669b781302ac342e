/**
 * @file
 * Smoke tests for the dumpState() post-mortem path at every level:
 * MemoryController, DramSystem, and SmtSystem.  These dumps are what
 * the watchdog prints when a run wedges, so each must render its key
 * fields without crashing on live mid-run state.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dram/address_mapping.hh"
#include "dram/dram_system.hh"
#include "dram/memory_controller.hh"
#include "sim/smt_system.hh"

namespace smtdram
{
namespace
{

TEST(DumpState, MemoryControllerRendersKeyFields)
{
    DramConfig config = DramConfig::ddrSdram(1);
    AddressMapping mapping(config);
    MemoryController mc(config, SchedulerKind::HitFirst);

    // Leave traffic genuinely in flight so the dump covers live
    // queues and bank state, not just an idle controller.
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        DramRequest req;
        req.id = i + 1;
        req.kind = RequestKind::Read;
        req.addr = i * 4096;
        req.thread = 0;
        req.arrival = now;
        req.coord = mapping.map(req.addr);
        mc.enqueue(req);
    }
    std::vector<DramRequest> completed;
    for (; now < 20; ++now)
        mc.tick(now, completed);
    ASSERT_GT(mc.outstanding(), 0u);

    std::ostringstream os;
    mc.dumpState(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("MemoryController[channel 0]"),
              std::string::npos);
    EXPECT_NE(dump.find("scheduler=Hit-first"), std::string::npos);
    EXPECT_NE(dump.find("outstanding="), std::string::npos);
    EXPECT_NE(dump.find("banks:"), std::string::npos);
    EXPECT_NE(dump.find("openRow="), std::string::npos);
    EXPECT_NE(dump.find("readQueue"), std::string::npos);
    EXPECT_NE(dump.find("inFlight"), std::string::npos);
}

TEST(DumpState, DramSystemRendersEveryChannel)
{
    DramConfig config = DramConfig::ddrSdram(2);
    DramSystem dram(config, SchedulerKind::HitFirst);
    ThreadSnapshot snap;
    for (std::uint64_t i = 0; i < 16; ++i)
        dram.enqueueRead(i * 8192, 0, snap, 0);

    std::ostringstream os;
    dram.dumpState(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("=== DramSystem state dump ==="),
              std::string::npos);
    EXPECT_NE(dump.find("channels=2"), std::string::npos);
    EXPECT_NE(dump.find("outstanding=16"), std::string::npos);
    EXPECT_NE(dump.find("MemoryController[channel 0]"),
              std::string::npos);
    EXPECT_NE(dump.find("MemoryController[channel 1]"),
              std::string::npos);
    EXPECT_NE(dump.find("=== end DramSystem state dump ==="),
              std::string::npos);
}

TEST(DumpState, SmtSystemRendersThreadsAndMemory)
{
    SystemConfig config = SystemConfig::paperDefault(2);
    std::vector<AppProfile> apps = {specProfile("mcf"),
                                    specProfile("gzip")};
    SmtSystem system(config, apps, 42);
    system.run(2000, 500);

    std::ostringstream os;
    system.dumpState(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("=== SmtSystem state dump (cycle"),
              std::string::npos);
    EXPECT_NE(dump.find("thread 0: committed="), std::string::npos);
    EXPECT_NE(dump.find("thread 1: committed="), std::string::npos);
    EXPECT_NE(dump.find("DramSystem state dump"), std::string::npos);
    EXPECT_NE(dump.find("=== end SmtSystem state dump ==="),
              std::string::npos);
}

} // namespace
} // namespace smtdram
