/**
 * @file
 * The narrow interface the cache hierarchy uses to talk to main
 * memory.
 *
 * Hierarchy only ever needs four operations from the memory system:
 * admission control, read/write enqueue, and the completion callback.
 * Pulling them into an abstract port lets a topology layer interpose a
 * router between a core's hierarchy and the home socket's channels of
 * the machine's DramSystem without the hierarchy knowing — a remote
 * access looks exactly like a slow local one.  SmtSystem plugs every
 * core into a SocketPort that forwards to the SocketRouter, the 1x1
 * machine included, so a miss pays one virtual dispatch (never one per
 * cycle).  DramSystem also implements the port, addressing socket 0,
 * so unit tests can wire a hierarchy straight to one.
 */

#ifndef SMTDRAM_DRAM_MEMORY_PORT_HH
#define SMTDRAM_DRAM_MEMORY_PORT_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "dram/dram_types.hh"

namespace smtdram
{

/** Abstract memory-system endpoint for one cache hierarchy. */
class MemoryPort
{
  public:
    using ReadCallback = std::function<void(const DramRequest &)>;

    virtual ~MemoryPort() = default;

    /** True if the target channel can queue another request. */
    virtual bool canAccept(Addr addr, MemOp op) const = 0;

    /**
     * Queue a read for @p addr on behalf of @p thread.
     * @return the request id (also reported at completion).
     */
    virtual std::uint64_t enqueueRead(Addr addr, ThreadId thread,
                                      const ThreadSnapshot &snap,
                                      Cycle now, bool critical) = 0;

    /** Queue a (writeback) write; completes silently. */
    virtual std::uint64_t enqueueWrite(Addr addr, Cycle now) = 0;

    /** Called once per completed read, in completion order. */
    virtual void setReadCallback(ReadCallback cb) = 0;
};

} // namespace smtdram

#endif // SMTDRAM_DRAM_MEMORY_PORT_HH
