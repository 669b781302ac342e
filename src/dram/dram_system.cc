#include "dram/dram_system.hh"

#include <algorithm>
#include <iostream>
#include <ostream>

#include "common/logging.hh"

namespace smtdram
{

/** Cadence of the O(outstanding) checker age scan. */
static constexpr Cycle kAgeCheckPeriod = 4096;

DramSystem::DramSystem(const DramConfig &config, SchedulerKind scheduler,
                       std::uint32_t sockets)
    : config_(config), mapping_(config), sockets_(sockets),
      perSocket_(config.logicalChannels())
{
    config_.validate();
    panic_if(sockets_ == 0, "a memory system needs at least one socket");
    controllers_.reserve(std::size_t{sockets_} * perSocket_);
    for (std::uint32_t c = 0; c < sockets_ * perSocket_; ++c)
        controllers_.emplace_back(config_, scheduler, c);
    if (config_.checkerEnabled) {
        checker_ = std::make_unique<ConservationChecker>(
            config_.checkerMaxAge,
            [this] { dumpState(std::cerr); });
    }
    if (config_.ecc.enabled) {
        scrub_.resize(controllers_.size());
        // Stagger each socket's first bursts through one interval so
        // multi-channel systems never scrub in lockstep (same idea as
        // refresh).
        const Cycle interval = config_.ecc.scrubInterval;
        for (size_t c = 0; c < scrub_.size(); ++c)
            scrub_[c].nextAt = (c % perSocket_ + 1) * interval / perSocket_;
    }
}

void
DramSystem::serviceScrub(std::uint32_t socket, Cycle now)
{
    const EccConfig &ecc = config_.ecc;
    const std::uint32_t columns = config_.columnsPerRow();
    const std::uint32_t banks = config_.banksPerChannel();
    for (std::uint32_t c = socket * perSocket_;
         c < (socket + 1) * perSocket_; ++c) {
        ScrubState &s = scrub_[c];
        if (now < s.nextAt)
            continue;
        MemoryController &mc = controllers_[c];
        // One burst per interval, bounded by what is still queued: a
        // channel too loaded to drain its previous burst skips ahead
        // instead of accumulating scrub backlog without limit.
        for (std::uint32_t i = mc.queuedScrubs(); i < ecc.scrubBurst;
             ++i) {
            DramRequest req;
            req.kind = RequestKind::Scrub;
            req.thread = kThreadNone;
            req.addr = kAddrInvalid;  // patrol walks coordinates
            req.coord = {c, s.bank, s.row, s.column};
            req.critical = false;
            // Sequential patrol: next column, then next row, then
            // next bank — mostly row hits, like real scrubbers.
            if (++s.column >= columns) {
                s.column = 0;
                if (++s.row >= ecc.scrubRegionRows) {
                    s.row = 0;
                    s.bank = (s.bank + 1) % banks;
                }
            }
            submit(req, now);
        }
        s.nextAt += ecc.scrubInterval;
        if (s.nextAt <= now)
            s.nextAt = now + ecc.scrubInterval;
    }
}

void
DramSystem::serviceMitigations(std::uint32_t socket, Cycle now)
{
    for (std::uint32_t c = socket * perSocket_;
         c < (socket + 1) * perSocket_; ++c) {
        MemoryController &mc = controllers_[c];
        if (!mc.hasPendingMitigations())
            continue;
        mitigationScratch_.clear();
        mc.takePendingMitigations(mitigationScratch_);
        for (const MitigationRequest &m : mitigationScratch_) {
            DramRequest req;
            req.kind = RequestKind::Mitigation;
            req.thread = kThreadNone;
            req.addr = kAddrInvalid;  // row-granular, no data moved
            req.coord = {c, m.bank, m.row, 0};
            req.critical = false;
            submit(req, now);
        }
    }
}

bool
DramSystem::canAccept(std::uint32_t home, Addr addr, MemOp op) const
{
    const MemoryController &mc =
        controllers_[home * perSocket_ + mapping_.map(addr).channel];
    return op == MemOp::Read ? mc.canAcceptRead() : mc.canAcceptWrite();
}

std::uint64_t
DramSystem::enqueueRead(Addr addr, ThreadId thread,
                        const ThreadSnapshot &snap, Cycle now,
                        bool critical)
{
    return enqueueRead(0, addr, thread, snap, now, critical, 0, 0);
}

std::uint64_t
DramSystem::enqueueRead(std::uint32_t home, Addr addr, ThreadId thread,
                        const ThreadSnapshot &snap, Cycle now,
                        bool critical, Cycle remote_until,
                        std::uint32_t origin)
{
    DramRequest req;
    req.kind = RequestKind::Read;
    req.addr = addr;
    req.thread = thread;
    req.origin = origin;
    req.snap = snap;
    req.coord = mapping_.map(addr);
    req.coord.channel += home * perSocket_;
    req.critical = critical;
    if (remote_until > now) {
        req.remoteUntil = remote_until;
        req.notBefore = remote_until;
    }
    if (thread != kThreadNone) {
        if (thread >= perThreadOutstanding_.size())
            perThreadOutstanding_.resize(thread + 1, 0);
        ++perThreadOutstanding_[thread];
    }
    return submit(req, now);
}

std::uint64_t
DramSystem::enqueueWrite(Addr addr, Cycle now)
{
    return enqueueWrite(0, addr, now, 0);
}

std::uint64_t
DramSystem::enqueueWrite(std::uint32_t home, Addr addr, Cycle now,
                         Cycle remote_until)
{
    DramRequest req;
    req.kind = RequestKind::Write;
    req.addr = addr;
    req.thread = kThreadNone;
    req.coord = mapping_.map(addr);
    req.coord.channel += home * perSocket_;
    if (remote_until > now) {
        req.remoteUntil = remote_until;
        req.notBefore = remote_until;
    }
    return submit(req, now);
}

std::uint64_t
DramSystem::submit(DramRequest &req, Cycle now)
{
    req.id = nextId_++;
    req.arrival = now;
    if (checker_)
        checker_->onEnqueue(req, now);
    controllers_[req.coord.channel].enqueue(req);
    ++outstanding_;
    return req.id;
}

void
DramSystem::tick(Cycle now)
{
    // Idle fast-path, socket by socket: with nothing queued or in
    // flight, no scrub burst due, and no controller needing its
    // per-cycle RNG draw or refresh bookkeeping, a socket's tick is a
    // no-op.  Skipping it is observationally safe — the checker's
    // amortized age scan in tickSocket() is trivially clean with zero
    // outstanding requests, so deferring lastAgeCheck_ changes
    // nothing.  Memory-bound phases never take this path;
    // compute-bound ones take it almost every cycle.
    for (std::uint32_t s = 0; s < sockets_; ++s) {
        if (!idleAt(now, s * perSocket_, (s + 1) * perSocket_))
            tickSocket(s, now);
    }
}

void
DramSystem::tickSocket(std::uint32_t socket, Cycle now)
{
    if (!scrub_.empty())
        serviceScrub(socket, now);

    // Turn tracker requests (appended during earlier launches) into
    // queued maintenance commands before the controllers issue.
    if (config_.hammer.mitigates())
        serviceMitigations(socket, now);

    completedScratch_.clear();
    for (std::uint32_t c = socket * perSocket_;
         c < (socket + 1) * perSocket_; ++c)
        controllers_[c].tick(now, completedScratch_);
    // Retries re-enter their queue inside the controller (net zero);
    // only final completions leave the system.
    panic_if(completedScratch_.size() > outstanding_,
             "outstanding counter underflow");
    outstanding_ -= completedScratch_.size();

    if (completedScratch_.size() > 1) {
        // Stable insertion sort: a tick completes at most a handful
        // of requests (usually already ordered, channels appended in
        // index order), and std::stable_sort's temporary buffer was
        // the last per-tick heap allocation on this path.
        for (size_t i = 1; i < completedScratch_.size(); ++i) {
            for (size_t j = i;
                 j > 0 && completedScratch_[j].completion <
                              completedScratch_[j - 1].completion;
                 --j) {
                std::swap(completedScratch_[j],
                          completedScratch_[j - 1]);
            }
        }
    }

    for (const auto &req : completedScratch_) {
        if (checker_)
            checker_->onComplete(req, now);
        // Scrub and mitigation completions are internal maintenance:
        // conserved by the checker above but invisible to the demand
        // callback.
        if (req.kind != RequestKind::Read)
            continue;
        if (req.thread != kThreadNone &&
            req.thread < perThreadOutstanding_.size()) {
            panic_if(perThreadOutstanding_[req.thread] == 0,
                     "per-thread outstanding underflow");
            --perThreadOutstanding_[req.thread];
            if (req.thread >= perThreadReads_.size())
                perThreadReads_.resize(req.thread + 1, 0);
            ++perThreadReads_[req.thread];
        }
        if (readCallback_)
            readCallback_(req);
    }

    // Starvation scan over the whole machine, amortized: the map walk
    // is O(outstanding), far too costly per cycle but negligible every
    // few thousand.
    if (checker_ && now - lastAgeCheck_ >= kAgeCheckPeriod) {
        lastAgeCheck_ = now;
        checker_->checkAges(now);
        // The checker's live set must equal what the controllers
        // actually hold — every kind's queue plus in flight,
        // maintenance included; a drift means a request leaked past
        // one side.
        // Also cross-check the incremental counter against the
        // queues while we are paying for a scan anyway.
        size_t summed = 0;
        for (const auto &mc : controllers_)
            summed += mc.outstanding();
        panic_if(summed != outstanding_,
                 "outstanding counter drifted: cached %zu, queues "
                 "hold %zu", outstanding_, summed);
        if (checker_->outstanding() != outstandingRequests()) {
            dumpState(std::cerr);
            panic("conservation drift: checker tracks %llu live "
                  "requests but the queues hold %zu",
                  (unsigned long long)checker_->outstanding(),
                  outstandingRequests());
        }
    }
}

Cycle
DramSystem::nextEventAt(Cycle now) const
{
    Cycle next = kCycleNever;
    // Scrub deadlines: serviceScrub fires exactly at s.nextAt (any
    // deadline <= now was bumped by the tick that just ran, or the
    // idle fast-path guarantees it is still in the future).
    for (const ScrubState &s : scrub_)
        next = std::min(next, std::max(s.nextAt, now + 1));
    for (const MemoryController &mc : controllers_)
        next = std::min(next, mc.nextEventAt(now));
    return next;
}

std::uint32_t
DramSystem::distinctThreadsOutstanding() const
{
    std::uint32_t n = 0;
    for (auto c : perThreadOutstanding_) {
        if (c > 0)
            ++n;
    }
    return n;
}

const MemoryController &
DramSystem::channel(std::uint32_t c) const
{
    panic_if(c >= controllers_.size(), "channel %u out of range", c);
    return controllers_[c];
}

template <class Stats>
Stats
DramSystem::sum(const Stats &(MemoryController::*get)() const,
                std::uint32_t first, std::uint32_t last) const
{
    Stats agg;
    for (std::uint32_t s = first; s < last; ++s) {
        Stats socket;
        for (std::uint32_t c = s * perSocket_; c < (s + 1) * perSocket_;
             ++c)
            socket.merge((controllers_[c].*get)());
        agg.merge(socket);
    }
    return agg;
}

ControllerStats
DramSystem::aggregateStats() const
{
    return sum(&MemoryController::stats, 0, sockets_);
}

ControllerStats
DramSystem::socketStats(std::uint32_t s) const
{
    panic_if(s >= sockets_, "socket %u out of range", s);
    return sum(&MemoryController::stats, s, s + 1);
}

FaultStats
DramSystem::aggregateFaultStats() const
{
    return sum(&MemoryController::faultStats, 0, sockets_);
}

HammerStats
DramSystem::aggregateHammerStats() const
{
    return sum(&MemoryController::hammerStats, 0, sockets_);
}

std::uint64_t
DramSystem::hammerFlippedRows() const
{
    std::uint64_t n = 0;
    for (const auto &mc : controllers_)
        n += mc.hammerModel().flippedRows();
    return n;
}

PowerStats
DramSystem::aggregatePowerStats() const
{
    return sum(&MemoryController::powerStats, 0, sockets_);
}

void
DramSystem::syncPower(Cycle now)
{
    for (auto &mc : controllers_)
        mc.syncPower(now);
}

void
DramSystem::resetStats(Cycle now)
{
    for (auto &mc : controllers_)
        mc.resetStats(now);
    std::fill(perThreadReads_.begin(), perThreadReads_.end(), 0);
}

void
DramSystem::setTracer(Tracer *tracer)
{
    for (auto &mc : controllers_)
        mc.setTracer(tracer);
}

void
DramSystem::dumpState(std::ostream &os) const
{
    os << "=== DramSystem state dump ===\n";
    os << "channels=" << controllers_.size() << " sockets=" << sockets_
       << " outstanding=" << outstandingRequests();
    if (config_.ecc.enabled) {
        const ControllerStats agg = aggregateStats();
        os << " ecc{scrubReads=" << agg.scrubReads
           << " corrected=" << agg.correctedErrors
           << " uncorrectable=" << agg.uncorrectableErrors << "}";
    }
    if (config_.hammer.enabled) {
        const HammerStats hagg = aggregateHammerStats();
        os << " hammer{flips=" << hagg.victimFlips
           << " corrected=" << hagg.victimCorrected
           << " uncorrectable=" << hagg.victimUncorrectable
           << " mitigations=" << hagg.mitigationsIssued
           << " flippedRows=" << hammerFlippedRows() << "}";
    }
    if (checker_) {
        os << " checker{enqueued=" << checker_->enqueued()
           << " completed=" << checker_->completed()
           << " live=" << checker_->outstanding() << "}";
    }
    const PowerStats pagg = aggregatePowerStats();
    os << " power{totalNj=" << pagg.totalEnergy
       << " pdEntries=" << pagg.powerdownEntries
       << " srEntries=" << pagg.selfRefreshEntries << "}";
    os << "\n";
    for (const auto &mc : controllers_)
        mc.dumpState(os);
    os << "=== end DramSystem state dump ===\n";
}

} // namespace smtdram
