#include "topology/socket_router.hh"

#include "common/logging.hh"

namespace smtdram
{

SocketRouter::SocketRouter(const TopologyConfig &topo, DramSystem &dram,
                           NumaFrameAllocator &alloc,
                           std::uint32_t num_threads)
    : topo_(topo), dram_(dram), alloc_(alloc),
      net_(topo.sockets, topo.hopLatency, topo.linkOccupancy),
      deliver_(topo.totalCores()),
      readsToSocket_(num_threads,
                     std::vector<std::uint64_t>(topo.sockets, 0))
{
    stats_.perThreadRemoteReads.assign(num_threads, 0);
    stats_.perThreadReturnCycles.assign(num_threads, 0);
    panic_if(dram_.sockets() != topo_.sockets,
             "memory system has %u sockets, topology %u", dram_.sockets(),
             topo_.sockets);
    dram_.setReadCallback(
        [this](const DramRequest &req) { onComplete(req); });
}

bool
SocketRouter::canAccept(std::uint32_t core, Addr addr, MemOp op) const
{
    (void)core;
    return dram_.canAccept(alloc_.homeOfAddr(addr), alloc_.stripHome(addr),
                           op);
}

std::uint64_t
SocketRouter::read(std::uint32_t core, Addr addr, ThreadId thread,
                   const ThreadSnapshot &snap, Cycle now, bool critical)
{
    const std::uint32_t src = socketOf(core);
    const std::uint32_t home = alloc_.homeOfAddr(addr);
    const Addr local = alloc_.stripHome(addr);

    Cycle remote_until = 0;
    if (home != src) {
        const TransferResult tr = net_.transfer(src, home, now, thread);
        remote_until = now + tr.delay;
        ++stats_.remoteReads;
        stats_.outboundCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
        if (tr.queueWait > 0 && thread != kThreadNone)
            linkInterference_.add(thread, tr.blockedBy, tr.queueWait);
        if (thread != kThreadNone &&
            thread < stats_.perThreadRemoteReads.size())
            ++stats_.perThreadRemoteReads[thread];
    } else {
        ++stats_.localReads;
    }
    if (thread != kThreadNone && thread < readsToSocket_.size())
        ++readsToSocket_[thread][home];

    return dram_.enqueueRead(home, local, thread, snap, now, critical,
                             remote_until, core);
}

std::uint64_t
SocketRouter::write(std::uint32_t core, Addr addr, Cycle now)
{
    const std::uint32_t src = socketOf(core);
    const std::uint32_t home = alloc_.homeOfAddr(addr);
    const Addr local = alloc_.stripHome(addr);

    Cycle remote_until = 0;
    if (home != src) {
        // Writebacks are fire-and-forget: they cross the fabric but
        // nobody waits on a reply, so only the request hop matters.
        const TransferResult tr =
            net_.transfer(src, home, now, kThreadNone);
        remote_until = now + tr.delay;
        ++stats_.remoteWrites;
        stats_.outboundCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
    } else {
        ++stats_.localWrites;
    }
    return dram_.enqueueWrite(home, local, now, remote_until);
}

void
SocketRouter::onComplete(const DramRequest &req)
{
    const std::uint32_t home = dram_.socketOf(req.coord.channel);
    // A phantom or duplicated reply for a real core still dies in
    // its Hierarchy ("fill for unknown line").
    const std::uint32_t core = req.origin;
    panic_if(core >= deliver_.size(),
             "socket %u delivered read id %llu for core %u of %zu",
             home, (unsigned long long)req.id, core, deliver_.size());

    const std::uint32_t dst = socketOf(core);
    DramRequest out = req;
    out.addr = alloc_.tagHome(req.addr, home);
    if (dst != home) {
        const TransferResult tr =
            net_.transfer(home, dst, req.completion, req.thread);
        out.completion += tr.delay;
        out.blame.add(BlameComponent::RemoteAccess, tr.delay);
        stats_.returnCycles += tr.delay;
        stats_.linkQueueCycles += tr.queueWait;
        ++stats_.linkTransfers;
        if (tr.queueWait > 0 && req.thread != kThreadNone)
            linkInterference_.add(req.thread, tr.blockedBy,
                                  tr.queueWait);
        if (req.thread != kThreadNone &&
            req.thread < stats_.perThreadReturnCycles.size())
            stats_.perThreadReturnCycles[req.thread] += tr.delay;
    }
    if (deliver_[core])
        deliver_[core](out);
}

void
SocketRouter::resetStats()
{
    const std::size_t n = stats_.perThreadRemoteReads.size();
    stats_ = NumaStats{};
    stats_.perThreadRemoteReads.assign(n, 0);
    stats_.perThreadReturnCycles.assign(n, 0);
    linkInterference_ = InterferenceMatrix{};
    for (auto &per : readsToSocket_)
        per.assign(per.size(), 0);
}

} // namespace smtdram
