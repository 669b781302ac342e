/**
 * @file
 * The socket interconnect: a bidirectional ring of point-to-point
 * links with per-hop latency and bounded per-link bandwidth.
 *
 * Each ordered (src, dst) pair is one directed channel (separate
 * request and reply networks, as real fabrics keep them to avoid
 * protocol deadlock).  A transfer pays hops(src, dst) * hopLatency of
 * wire delay plus any wait behind the channel's previous occupant;
 * the channel then stays busy for linkOccupancy cycles.  Queue waits
 * are attributed to the thread that held the channel, feeding the
 * interference matrix's remote-access rows.
 */

#ifndef SMTDRAM_TOPOLOGY_INTERCONNECT_HH
#define SMTDRAM_TOPOLOGY_INTERCONNECT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smtdram
{

/** One routed transfer's outcome. */
struct TransferResult {
    Cycle delay = 0;     ///< total extra latency (queue + hops)
    Cycle queueWait = 0; ///< cycles spent waiting for the channel
    /** Thread whose transfer held the channel (kThreadNone if none
     *  or the previous occupant was ownerless write traffic). */
    ThreadId blockedBy = kThreadNone;
};

/** Ring interconnect with per-directed-channel occupancy. */
class Interconnect
{
  public:
    Interconnect(std::uint32_t sockets, Cycle hop_latency,
                 Cycle link_occupancy)
        : sockets_(sockets), hopLatency_(hop_latency),
          linkOccupancy_(link_occupancy),
          channels_(static_cast<std::size_t>(sockets) * sockets)
    {
    }

    /** Minimal hop count between @p a and @p b on an N-socket ring. */
    static std::uint32_t
    ringHops(std::uint32_t a, std::uint32_t b, std::uint32_t sockets)
    {
        const std::uint32_t d = a > b ? a - b : b - a;
        return d < sockets - d ? d : sockets - d;
    }

    /**
     * Route one transfer departing @p src at @p depart toward @p dst
     * on behalf of @p owner.  src == dst is free and touches no
     * channel state (local traffic never transits the fabric).
     */
    TransferResult
    transfer(std::uint32_t src, std::uint32_t dst, Cycle depart,
             ThreadId owner)
    {
        TransferResult r;
        if (src == dst)
            return r;
        Channel &ch = channels_[src * sockets_ + dst];
        if (ch.busyUntil > depart) {
            r.queueWait = ch.busyUntil - depart;
            r.blockedBy = ch.lastOwner;
        }
        const Cycle wire =
            ringHops(src, dst, sockets_) * hopLatency_;
        r.delay = r.queueWait + wire;
        ch.busyUntil =
            (ch.busyUntil > depart ? ch.busyUntil : depart) +
            linkOccupancy_;
        ch.lastOwner = owner;
        return r;
    }

  private:
    /** Directed link occupancy: who holds it and until when. */
    struct Channel {
        Cycle busyUntil = 0;
        ThreadId lastOwner = kThreadNone;
    };

    std::uint32_t sockets_;
    Cycle hopLatency_;
    Cycle linkOccupancy_;
    std::vector<Channel> channels_;
};

} // namespace smtdram

#endif // SMTDRAM_TOPOLOGY_INTERCONNECT_HH
