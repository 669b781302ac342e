#include "dram/memory_controller.hh"

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/logging.hh"

namespace smtdram
{

void
ControllerStats::merge(const ControllerStats &s)
{
    reads += s.reads;
    writes += s.writes;
    rowHits += s.rowHits;
    rowEmpty += s.rowEmpty;
    rowConflicts += s.rowConflicts;
    busBusyCycles += s.busBusyCycles;
    refreshes += s.refreshes;
    refreshBlockedCycles += s.refreshBlockedCycles;
    readRetries += s.readRetries;
    retriesExhausted += s.retriesExhausted;
    scrubReads += s.scrubReads;
    correctedErrors += s.correctedErrors;
    uncorrectableErrors += s.uncorrectableErrors;
    eccCheckCycles += s.eccCheckCycles;
    readLatency.merge(s.readLatency);
    readQueueing.merge(s.readQueueing);
    readLatencyHist.merge(s.readLatencyHist);
    queueDepthHist.merge(s.queueDepthHist);
    rowHitRunHist.merge(s.rowHitRunHist);
    blameTotals.merge(s.blameTotals);
    for (std::size_t c = 0; c < kNumBlameComponents; ++c)
        blameHist[c].merge(s.blameHist[c]);
    if (perThreadBlame.size() < s.perThreadBlame.size())
        perThreadBlame.resize(s.perThreadBlame.size());
    for (std::size_t t = 0; t < s.perThreadBlame.size(); ++t)
        perThreadBlame[t].merge(s.perThreadBlame[t]);
    interference.merge(s.interference);
}

namespace
{

/** Per-kind labels, indexed by RequestKind: the lifecycle-span name
 *  in traces, and the queue's name in dumps and overflow panics. */
constexpr const char *kSpanName[kNumRequestKinds] = {"read", "write",
                                                     "scrub", "prevref"};
constexpr const char *kQueueName[kNumRequestKinds] = {
    "readQueue", "writeQueue", "scrubQueue", "mitigationQueue"};

/** True for the kinds that read data off the DRAM: read-error
 *  retries, ECC outcomes and hammer flips apply to them. */
bool
readsData(RequestKind kind)
{
    return kind == RequestKind::Read || kind == RequestKind::Scrub;
}

/** Dump letter: scrubs and mitigations read like reads ("R"). */
const char *
opLetter(RequestKind kind)
{
    return kind == RequestKind::Write ? "W" : "R";
}

/**
 * Entries a kind's queue holds.  Demand requests are refused at the
 * cap (canAcceptRead/canAcceptWrite); scrub and mitigation traffic is
 * paced by its generator, so reaching the cap means the pacing broke.
 */
std::size_t
queueCap(const DramConfig &config, RequestKind kind)
{
    return kind == RequestKind::Write ? config.writeQueueCap
                                      : config.readQueueCap;
}

} // namespace

MemoryController::MemoryController(const DramConfig &config,
                                   SchedulerKind scheduler,
                                   std::uint32_t channel)
    : config_(config),
      channel_(channel),
      scheduler_(scheduler),
      injector_(config.faults, config.ecc, config.hammer, channel),
      // The address map does not bound the row index (pages map ever
      // upward), so the disturbance model only clips victims at the
      // index-space edges.
      hammer_(config.hammer, config.banksPerChannel(),
              std::numeric_limits<std::uint32_t>::max()),
      table_(TimingTable::build(config)),
      banks_(config.banksPerChannel()),
      power_(config, channel)
{
    config_.validate();
    if (config_.refreshEnabled()) {
        // Stagger first deadlines evenly through one tREFI so the
        // banks of a channel never refresh in lockstep.
        const Cycle interval = table_.refreshInterval;
        const std::uint32_t n = banks_.size();
        for (std::uint32_t i = 0; i < n; ++i)
            banks_.nextRefreshAt[i] = (i + 1) * interval / n;
        nextRefreshDue_ = banks_.nextRefreshAt.front();
        for (const Cycle due : banks_.nextRefreshAt)
            nextRefreshDue_ = std::min(nextRefreshDue_, due);
    }
    // Queues hold small fixed-size entries; reserving the acceptance
    // caps up front means even the cold-start ramp never reallocates.
    // One scheduling scan can surface every kind together, so
    // reserving the summed caps makes the candidate scratch
    // allocation-free for the controller's lifetime (ZeroAllocTest
    // pins this).
    std::size_t total_cap = 0;
    for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
        const std::size_t cap =
            queueCap(config_, static_cast<RequestKind>(k));
        queues_[k].reserve(cap);
        total_cap += cap;
    }
    candidateScratch_.reserve(total_cap);
}

void
MemoryController::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (!tracer_)
        return;
    const int pid = tracePidChannel(channel_);
    tracer_->nameProcess(pid, "dram.ch" + std::to_string(channel_));
    tracer_->nameThread(pid, kTraceTidQueue, "queue");
    tracer_->nameThread(pid, kTraceTidBus, "bus");
    for (std::uint32_t b = 0; b < banks_.size(); ++b) {
        tracer_->nameThread(pid, traceTidBank(b),
                            "bank" + std::to_string(b));
    }
    if (power_.machineActive()) {
        for (std::uint32_t r = 0; r < power_.ranks(); ++r) {
            tracer_->nameThread(pid, traceTidRankPower(r),
                                "rank" + std::to_string(r) + ".power");
        }
    }
}

void
MemoryController::enqueue(DramRequest req)
{
    panic_if(req.coord.bank >= banks_.size(),
             "bank %u out of range (%zu banks)", req.coord.bank,
             static_cast<size_t>(banks_.size()));
    const RequestKind kind = req.kind;
    panic_if(queue(kind).size() >= queueCap(config_, kind),
             "%s overflow", kQueueName[kindIndex(kind)]);
    if (kind == RequestKind::Read && req.retries == 0)
        stats_.queueDepthHist.sample(queuedReads());
    if (tracer_ && req.retries == 0) {
        // Retried requests re-enter the queue inside an already-open
        // span; only the first enqueue begins the lifecycle.
        tracer_->asyncBegin(
            "dram", kSpanName[kindIndex(kind)], req.id,
            tracePidChannel(channel_), req.arrival,
            Tracer::arg2("bank", req.coord.bank, "thread",
                         req.thread == kThreadNone
                             ? ~std::uint64_t{0}
                             : req.thread));
    }
    // Mitigation commands never draw from the fault stream: enabling
    // the hammer model must not perturb the fault pattern of a seed.
    if (injector_.active() && kind != RequestKind::Mitigation) {
        // A command-path glitch delays when the request may issue,
        // not when it occupies queue space.
        const Cycle d = injector_.sampleEnqueueDelay();
        if (d > 0)
            req.notBefore = std::max(req.notBefore, req.arrival + d);
    }
    // Blame: anchor attribution at arrival.
    if (req.blameUpTo < req.arrival)
        req.blameUpTo = req.arrival;
    const Cycle arrival = req.arrival;
    joinQueue(pool_.alloc(std::move(req)), arrival);
}

void
MemoryController::joinQueue(ReqHandle h, Cycle now)
{
    DramRequest &req = pool_.at(h);
    // Account any window already standing against this request (busy
    // bank, engaged bus gate) so a mid-window arrival attributes its
    // wait correctly.
    const std::uint32_t b = req.coord.bank;
    if (banks_.readyAt[b] > now) {
        accountWaitUntil(req, banks_.readyAt[b], banks_.busyCause[b],
                         banks_.busyOwner[b]);
    }
    if (busFreeAt_ > now + table_.maxBusLead) {
        accountWaitUntil(req, busFreeAt_ - table_.maxBusLead,
                         busGateCause_, busOwner_);
    }
    queue(req.kind).push_back(
        QueuedRef{h, b, req.coord.row, req.arrival, req.notBefore});
}

void
MemoryController::accountWaitUntil(DramRequest &r, Cycle until,
                                   BlameComponent cause, ThreadId owner)
{
    if (until <= r.blameUpTo)
        return;
    Cycle from = r.blameUpTo;
    r.blameUpTo = until;
    // The slice a remote request spends crossing the socket
    // interconnect is its own component: those cycles are a property
    // of placement, not of anything this controller did.  It must be
    // carved out first — the router encodes the arrival-at-home time
    // in notBefore too, so the fault-retry carve-out below would
    // otherwise swallow it.
    if (r.remoteUntil > from) {
        const Cycle remote_end = std::min(r.remoteUntil, until);
        r.blame.add(BlameComponent::RemoteAccess, remote_end - from);
        from = remote_end;
        if (from >= until)
            return;
    }
    // The slice a request spends embargoed by its own notBefore
    // (retry backoff, injected enqueue delay) is fault-retry: those
    // cycles are nobody else's occupancy even when a busy-resource
    // window happens to overlap them.
    if (r.notBefore > from) {
        const Cycle fault_end = std::min(r.notBefore, until);
        r.blame.add(BlameComponent::FaultRetry, fault_end - from);
        from = fault_end;
        if (from >= until)
            return;
    }
    const std::uint64_t cycles = until - from;
    r.blame.add(cause, cycles);
    // Occupancy-type waits on demand reads feed the who-stalled-whom
    // matrix; arbitration and service-phase cycles do not.
    const bool occupancy = cause == BlameComponent::Queueing ||
                           cause == BlameComponent::RefreshStall ||
                           cause == BlameComponent::ScrubInterference ||
                           cause == BlameComponent::HammerMitigation;
    if (occupancy && r.kind == RequestKind::Read &&
        r.thread != kThreadNone) {
        stats_.interference.add(r.thread, owner, cycles);
    }
}

void
MemoryController::accountBlocked(DramRequest &r, Cycle now, Cycle end,
                                 BlameComponent cause, ThreadId owner)
{
    accountWaitUntil(r, now, BlameComponent::SchedulerDeferral,
                     kThreadNone);
    accountWaitUntil(r, end, cause, owner);
}

void
MemoryController::accountBankWindow(std::uint32_t bank_index, Cycle now)
{
    const Cycle ready_at = banks_.readyAt[bank_index];
    if (ready_at <= now)
        return;
    const BlameComponent cause = banks_.busyCause[bank_index];
    const ThreadId owner = banks_.busyOwner[bank_index];
    for (const std::vector<QueuedRef> &queue : queues_) {
        for (const QueuedRef &q : queue) {
            if (q.bank == bank_index)
                accountBlocked(pool_.at(q.h), now, ready_at, cause,
                               owner);
        }
    }
}

void
MemoryController::accountBusGate(Cycle now, BlameComponent cause,
                                 ThreadId owner)
{
    if (busFreeAt_ <= now + table_.maxBusLead)
        return;
    const Cycle gate_end = busFreeAt_ - table_.maxBusLead;
    for (const std::vector<QueuedRef> &queue : queues_) {
        for (const QueuedRef &q : queue)
            accountBlocked(pool_.at(q.h), now, gate_end, cause, owner);
    }
}

void
MemoryController::gatherCandidates(RequestKind kind, Cycle now,
                                   Cycle min_age,
                                   std::vector<SchedCandidate> &out) const
{
    // The filters run on the entry's cached fields; the pool is
    // dereferenced only for entries that survive them.
    const std::vector<QueuedRef> &q = queue(kind);
    const std::uint32_t n = static_cast<std::uint32_t>(q.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const QueuedRef &e = q[i];
        if (e.notBefore > now || now - e.arrival < min_age)
            continue;
        // One bit test against the mask sync()ed at tryIssue entry.
        if (!banks_.ready(e.bank))
            continue;
        SchedCandidate c;
        c.req = &pool_.at(e.h);
        c.rowHit = table_.openMode && banks_.rowHit(e.bank, e.row);
        c.bankIdle = banks_.idle(e.bank);
        c.queueIndex = i;
        out.push_back(c);
    }
}

void
MemoryController::tryIssue(Cycle now)
{
    // Write-drain hysteresis — evaluated before the bus-lead early-out
    // so the watermark state is fresh on every cycle.  This ordering
    // is behavior-identical to evaluating it after: writes leave the
    // queue only by issuing below, which cannot happen while the
    // early-out holds, so during a booked-bus window the write queue
    // only grows and the first post-window evaluation latches the
    // same state either way.  (Pinned by WriteDrainLatch* tests and
    // golden bit-identity.)
    const size_t writes = queue(RequestKind::Write).size();
    if (writes >= config_.writeHighWatermark)
        drainingWrites_ = true;
    else if (writes <= config_.writeLowWatermark)
        drainingWrites_ = false;

    // Nothing queued anywhere: the gathers below would all come back
    // empty, so skip the mask sync and scratch churn entirely.
    const size_t queued_total = queued();
    if (queued_total == 0)
        return;

    // Scheduling decisions are taken as late as possible: never book
    // the data bus more than maxBusLead ahead of real time.
    if (busFreeAt_ > now + table_.maxBusLead)
        return;

    // Readiness bitset: expire bank-busy windows once, then every
    // gather below tests one bit per candidate.
    banks_.sync(now);

    // Member scratch: gathering runs every busy cycle and must not
    // allocate (capacity persists across calls).
    std::vector<SchedCandidate> &candidates = candidateScratch_;
    candidates.clear();
    gatherCandidates(RequestKind::Read, now, 0, candidates);
    // Preventive refreshes compete at demand priority: Graphene must
    // beat the aggressor to the hammer threshold, so its refreshes
    // cannot wait for an idle channel the attacker never yields.
    if (!queue(RequestKind::Mitigation).empty())
        gatherCandidates(RequestKind::Mitigation, now, 0, candidates);
    // A scrub read stale past its deadline competes with demand.
    if (!queue(RequestKind::Scrub).empty()) {
        gatherCandidates(RequestKind::Scrub, now,
                         table_.scrubDeadline + 1, candidates);
    }
    // Writes compete only when draining or when no read could go.
    if (drainingWrites_ || candidates.empty())
        gatherCandidates(RequestKind::Write, now, 0, candidates);
    // Fresh scrub reads take whatever cycles nothing else wants.
    if (candidates.empty())
        gatherCandidates(RequestKind::Scrub, now, 0, candidates);
    if (candidates.empty())
        return;

    const SchedCandidate &chosen =
        candidates[pickCandidate(scheduler_, candidates, queued_total)];

    // Remove by recorded position in the winner's kind's queue.
    std::vector<QueuedRef> &q = queue(chosen.req->kind);
    panic_if(chosen.queueIndex >= q.size() ||
                 pool_.at(q[chosen.queueIndex].h).id != chosen.req->id,
             "picked request vanished from queues");
    const ReqHandle h = q[chosen.queueIndex].h;
    q.erase(q.begin() + chosen.queueIndex);

    launch(h, now);
}

Cycle
MemoryController::wakeRank(std::uint32_t rank, Cycle now)
{
    if (!power_.machineActive())
        return 0;
    const std::uint32_t lo = rank * config_.banksPerChip;
    const std::uint32_t hi = lo + config_.banksPerChip;
    std::uint32_t open_rows = 0;
    for (std::uint32_t b = lo; b < hi; ++b)
        open_rows += banks_.idle(b) ? 0 : 1;
    const WakeResult w = power_.wake(rank, now, open_rows, tracer_);
    if (w.from == PowerState::Active)
        return 0;
    // Precharge-powerdown entry precharged the whole rank (the wake
    // metered it): close its rows, ending any row-hit runs.
    for (std::uint32_t b = lo; b < hi; ++b) {
        banks_.openRow[b] = BankStateSoA::kNoRow;
        std::uint32_t &run = banks_.hitRun[b];
        if (run > 0) {
            stats_.rowHitRunHist.sample(run);
            run = 0;
        }
    }
    if (w.from == PowerState::SelfRefresh && config_.refreshEnabled()) {
        // Self-refresh kept the cells fresh internally; tREFI restarts
        // at the exit.  nextRefreshDue_ may briefly understate the new
        // deadlines, which only costs a few no-op refresh scans.
        for (std::uint32_t b = lo; b < hi; ++b)
            banks_.nextRefreshAt[b] = now + table_.refreshInterval;
    }
    return w.penalty;
}

void
MemoryController::launch(ReqHandle handle, Cycle now)
{
    DramRequest &req = pool_.at(handle);
    const std::uint32_t bank = req.coord.bank;
    panic_if(banks_.readyAt[bank] > now, "launching into a busy bank");

    const std::uint32_t rank = power_.rankOf(bank);
    // Wake before classifying the access: powerdown entry precharged
    // the rank, so what the scheduler saw as a row hit lands on an
    // empty row buffer after an exit.
    const Cycle wake_penalty = wakeRank(rank, now);

    if (req.kind == RequestKind::Mitigation) {
        // Preventive refresh: a maintenance ACT+PRE row cycle on the
        // victim row — no column access, no data burst, no bus time.
        // It closes whatever row was open, ending the bank's hit run.
        const bool was_idle = banks_.idle(bank);
        const Cycle lat =
            wake_penalty + table_.mitigationLat[was_idle ? 1 : 0];
        std::uint32_t &mrun = banks_.hitRun[bank];
        if (mrun > 0) {
            stats_.rowHitRunHist.sample(mrun);
            mrun = 0;
        }
        banks_.openRow[bank] = BankStateSoA::kNoRow;
        banks_.readyAt[bank] = now + lat;
        banks_.markBusy(bank);
        req.issueTime = now;
        req.rowHit = false;
        req.bankWasIdle = was_idle;
        req.completion = now + lat;

        // Blame: close the wait gap, decompose the service window,
        // and charge queued same-bank requests with the new window.
        accountWaitUntil(req, now, BlameComponent::SchedulerDeferral,
                         kThreadNone);
        req.blame.add(BlameComponent::PowerExit, wake_penalty);
        req.blame.add(BlameComponent::HammerMitigation,
                      lat - wake_penalty);
        req.blameUpTo = req.completion;
        banks_.busyCause[bank] = BlameComponent::HammerMitigation;
        banks_.busyOwner[bank] = kThreadNone;
        accountBankWindow(bank, now);

        hammer_.onPreventiveRefresh(bank, req.coord.row);
        HammerStats &hs = hammer_.stats();
        ++hs.mitigationsIssued;
        hs.mitigationCycles += lat;
        power_.meterPreventiveRefresh(rank, banks_.readyAt[bank]);

        if (tracer_) {
            const int pid = tracePidChannel(channel_);
            tracer_->asyncStep("dram", "prevref", req.id, pid, now,
                               "sched");
            tracer_->slice(pid, traceTidBank(bank), "prevref", now, lat,
                           Tracer::arg("id", req.id));
        }

        addInFlight(handle, req.completion);
        return;
    }

    const bool hit = table_.openMode && banks_.rowHit(bank, req.coord.row);
    const bool idle = banks_.idle(bank);

    std::uint32_t outcome;
    if (hit) {
        outcome = kRowHit;
        ++stats_.rowHits;
    } else if (idle) {
        outcome = kRowEmpty;
        ++stats_.rowEmpty;
    } else {
        outcome = kRowConflict;
        ++stats_.rowConflicts;
    }
    // Low-power exit latency delays the command sequence itself.
    const Cycle access_lat = table_.accessLat[outcome] + wake_penalty;

    if (hammer_.active()) {
        // Every row activation disturbs the neighbors; the tracker
        // may append preventive-refresh requests the system will
        // materialize on its next tick.
        if (!hit) {
            hammer_.recordActivation(bank, req.coord.row, injector_,
                                     pendingMitigations_);
        }
        // A data write overwrites the victim row's content, repairing
        // any disturbance flips it carried (row-granular abstraction;
        // see DESIGN.md section 13).
        if (req.kind == RequestKind::Write) {
            hammer_.clearFlips(bank, req.coord.row,
                               /*countAsScrubbed=*/true);
        }
    }

    // Row-locality run lengths: a miss ends the bank's current run.
    std::uint32_t &run = banks_.hitRun[bank];
    if (hit) {
        ++run;
    } else {
        if (run > 0)
            stats_.rowHitRunHist.sample(run);
        run = 0;
    }

    // With ECC the burst also moves the check bits.
    const Cycle transfer = table_.burst;
    const Cycle data_ready = now + access_lat;
    const Cycle data_start = std::max(data_ready, busFreeAt_);
    const Cycle data_end = data_start + transfer;

    busFreeAt_ = data_end;
    stats_.busBusyCycles += transfer;
    if (config_.ecc.enabled)
        stats_.eccCheckCycles += table_.eccOverhead;

    if (table_.openMode) {
        banks_.openRow[bank] = req.coord.row;
        banks_.readyAt[bank] = data_end;
    } else {
        // Auto-precharge overlaps nothing else on this bank.
        banks_.openRow[bank] = BankStateSoA::kNoRow;
        banks_.readyAt[bank] = data_end + table_.closePageTail;
    }
    banks_.markBusy(bank);

    req.issueTime = now;
    req.rowHit = hit;
    req.bankWasIdle = idle;
    req.completion = data_end + table_.controllerOverhead;

    // Blame: close the wait gap at launch, then decompose the service
    // phase analytically — sums to completion - now by construction.
    accountWaitUntil(req, now, BlameComponent::SchedulerDeferral,
                     kThreadNone);
    req.blame.add(BlameComponent::PowerExit, wake_penalty);
    req.blame.add(BlameComponent::BankConflict, table_.bankPrep[outcome]);
    req.blame.add(BlameComponent::EccOverhead, table_.eccOverhead);
    req.blame.add(BlameComponent::BusContention, data_start - data_ready);
    req.blame.add(BlameComponent::Intrinsic, table_.intrinsic);
    req.blameUpTo = req.completion;
    // Charge everyone queued behind the bank window and the bus-gate
    // window this launch just created.
    const bool scrub = req.kind == RequestKind::Scrub;
    banks_.busyCause[bank] = scrub ? BlameComponent::ScrubInterference
                                   : BlameComponent::Queueing;
    banks_.busyOwner[bank] = scrub ? kThreadNone : req.thread;
    accountBankWindow(bank, now);
    busGateCause_ = BlameComponent::Queueing;
    busOwner_ = banks_.busyOwner[bank];
    accountBusGate(now, busGateCause_, busOwner_);

    // Energy: the commands this access issued, attributed to its rank.
    power_.meterAccess(rank, req.kind == RequestKind::Write, scrub, hit,
                       idle, banks_.readyAt[bank]);

    if (tracer_) {
        const int pid = tracePidChannel(channel_);
        const int bank_tid = traceTidBank(bank);
        const char *name = kSpanName[kindIndex(req.kind)];
        tracer_->asyncStep("dram", name, req.id, pid, now, "sched");
        Cycle at = now + wake_penalty;
        if (!hit && !idle) {
            tracer_->slice(pid, bank_tid, "PRE", at, table_.precharge,
                           Tracer::arg("id", req.id));
            at += table_.precharge;
        }
        if (!hit) {
            tracer_->slice(pid, bank_tid, "ACT", at, table_.rowAccess,
                           Tracer::arg("id", req.id));
            at += table_.rowAccess;
        }
        tracer_->slice(pid, bank_tid, "CAS", at, table_.columnAccess,
                       Tracer::arg("id", req.id));
        tracer_->slice(pid, kTraceTidBus, "burst", data_start,
                       transfer, Tracer::arg("id", req.id));
    }

    if (scrub) {
        // Background maintenance: counted apart from demand so the
        // paper's reads/latency stats keep their meaning.
        ++stats_.scrubReads;
    } else if (req.kind == RequestKind::Read) {
        ++stats_.reads;
        stats_.readQueueing.sample(now - req.arrival);
        stats_.readLatency.sample(req.completion - req.arrival);
        stats_.readLatencyHist.sample(req.completion - req.arrival);
        // Sampled in lockstep with readLatency, whose sample equals
        // req.blame.sum() here, so Σ blameTotals == readLatency.sum()
        // reconciles exactly — retried attempts and run-end boundary
        // requests included.
        stats_.blameTotals.merge(req.blame);
        for (std::size_t c = 0; c < kNumBlameComponents; ++c)
            stats_.blameHist[c].sample(req.blame.cycles[c]);
    } else {
        ++stats_.writes;
    }

    addInFlight(handle, req.completion);
}

void
MemoryController::addInFlight(ReqHandle h, Cycle completion)
{
    // Keep inFlight_ sorted by completion for cheap retirement; ties
    // retire in launch order.
    const auto it = std::upper_bound(
        inFlight_.begin(), inFlight_.end(), completion,
        [](Cycle c, const InFlightRef &r) { return c < r.completion; });
    inFlight_.insert(it, InFlightRef{completion, h});
}

void
MemoryController::serviceRefresh(Cycle now)
{
    const Cycle interval = table_.refreshInterval;
    const Cycle duration = table_.refreshCycles;
    const std::uint32_t n = banks_.size();
    Cycle next_due = kCycleNever;
    for (std::uint32_t bank_index = 0; bank_index < n; ++bank_index) {
        if (now >= banks_.nextRefreshAt[bank_index]) {
            const std::uint32_t rank = power_.rankOf(bank_index);
            if (power_.stateAt(rank, now) == PowerState::SelfRefresh) {
                // The device refreshes itself in self-refresh; the
                // controller absorbs the deadline instead of waking
                // the rank just to refresh it.
                power_.noteRefreshSuppressed();
                banks_.nextRefreshAt[bank_index] = now + interval;
                if (hammer_.active()) {
                    // The device refreshed itself: charge restored,
                    // disturbance window over.
                    hammer_.onBankRefresh(bank_index);
                }
            } else if (banks_.readyAt[bank_index] > now) {
                // A refresh due on a busy bank waits for the
                // in-progress transaction; DDR allows postponing a
                // bounded number of refreshes, so flag only
                // pathological deferral.
                if (now - banks_.nextRefreshAt[bank_index] >
                    8 * interval) {
                    warn_once(
                        "bank refresh deferred more than 8*tREFI; "
                        "the channel is likely wedged");
                }
            } else {
                // A powered-down (non-self-refreshing) rank must wake
                // to take the refresh; the exit latency folds into
                // this refresh's bank-busy window.
                const Cycle exit_lat = wakeRank(rank, now);
                // refresh == precharge
                banks_.openRow[bank_index] = BankStateSoA::kNoRow;
                banks_.readyAt[bank_index] = now + exit_lat + duration;
                banks_.markBusy(bank_index);
                // Blame: the whole window (wake included) stalls any
                // queued same-bank request as refresh.
                banks_.busyCause[bank_index] =
                    BlameComponent::RefreshStall;
                banks_.busyOwner[bank_index] = kThreadNone;
                accountBankWindow(bank_index, now);
                if (tracer_) {
                    tracer_->slice(tracePidChannel(channel_),
                                   traceTidBank(bank_index), "refresh",
                                   now, exit_lat + duration);
                }
                // Catch up without scheduling a burst of back-to-back
                // refreshes if the bank was blocked a few intervals.
                banks_.nextRefreshAt[bank_index] += interval;
                if (banks_.nextRefreshAt[bank_index] <= now)
                    banks_.nextRefreshAt[bank_index] = now + interval;
                ++stats_.refreshes;
                stats_.refreshBlockedCycles += exit_lat + duration;
                power_.meterRefresh(rank, banks_.readyAt[bank_index]);
                if (hammer_.active())
                    hammer_.onBankRefresh(bank_index);
            }
        }
        next_due = std::min(next_due, banks_.nextRefreshAt[bank_index]);
    }
    // Deferred banks keep nextRefreshDue_ <= now, so idleAt() stays
    // false and the system keeps ticking until they refresh.
    nextRefreshDue_ = next_due;
}

void
MemoryController::retire(Cycle now, std::vector<DramRequest> &completed)
{
    size_t done = 0;
    while (done < inFlight_.size() && inFlight_[done].completion <= now)
        ++done;
    if (done == 0)
        return;

    for (size_t i = 0; i < done; ++i) {
        const ReqHandle handle = inFlight_[i].h;
        DramRequest &req = pool_.at(handle);
        bool exhausted = false;
        if (readsData(req.kind) && injector_.active() &&
            injector_.sampleReadError()) {
            if (req.retries < config_.faults.maxRetries) {
                // Bounded retry with exponential backoff: the
                // transaction goes back into its queue and becomes
                // eligible again after the backoff.  The re-queue
                // bypasses the acceptance cap — the request already
                // held queue space once and dropping it would break
                // conservation.
                ++req.retries;
                ++stats_.readRetries;
                const Cycle backoff =
                    config_.faults.retryBackoff
                    << std::min<std::uint32_t>(req.retries - 1, 16);
                req.notBefore = now + backoff;
                if (tracer_) {
                    tracer_->instant(tracePidChannel(channel_),
                                     kTraceTidQueue, "fault-retry", now,
                                     Tracer::arg2("id", req.id, "retry",
                                                  req.retries));
                }
                // The pooled slot survives the round trip: only the
                // queue entry is rebuilt (notBefore moved, so the
                // cached copy must be refreshed).  Like enqueue, the
                // windows standing at re-queue time are accounted (the
                // backoff embargo routes most of them to fault-retry
                // via the notBefore split).
                joinQueue(handle, now);
                continue;
            }
            ++stats_.retriesExhausted;
            exhausted = true;
            if (config_.ecc.enabled) {
                // A persistently failing read is exactly what SECDED
                // calls a detected uncorrectable error: deliver the
                // line poisoned instead of pretending it is good.
                req.poisoned = true;
                ++stats_.uncorrectableErrors;
            } else {
                warn_once("read retry budget exhausted; delivering "
                          "the transaction anyway (audit via the "
                          "retriesExhausted stat and dumpState())");
            }
        }
        // Rowhammer corruption surfaces on victim-row reads.  SECDED
        // corrects a single outstanding flip (and its writeback
        // repairs the row); two or more flips are a detected
        // uncorrectable error that persists until a write or scrub.
        // With ECC off the read is silently corrupt — audited only.
        bool hammer_handled = false;
        if (readsData(req.kind) && hammer_.active()) {
            const std::uint32_t flips =
                hammer_.flipsOn(req.coord.bank, req.coord.row);
            if (flips > 0) {
                HammerStats &hs = hammer_.stats();
                if (config_.ecc.enabled) {
                    if (flips == 1) {
                        req.corrected = true;
                        ++stats_.correctedErrors;
                        ++hs.victimCorrected;
                        hammer_.clearFlips(req.coord.bank,
                                           req.coord.row,
                                           /*countAsScrubbed=*/false);
                    } else {
                        req.poisoned = true;
                        ++stats_.uncorrectableErrors;
                        ++hs.victimUncorrectable;
                    }
                } else {
                    ++hs.silentCorruptions;
                    warn_once(
                        "rowhammer flip read back with ECC off: "
                        "silent data corruption (audited via the "
                        "hammer silentCorruptions stat)");
                }
                hammer_handled = true;
            }
        }
        if (readsData(req.kind) && !exhausted && !hammer_handled &&
            injector_.eccActive()) {
            switch (injector_.sampleEccRead()) {
              case EccOutcome::Corrected:
                // Single-bit flip: SECDED fixes it in the controller
                // data path; only the stat and the flag are visible.
                req.corrected = true;
                ++stats_.correctedErrors;
                break;
              case EccOutcome::Uncorrectable:
                req.poisoned = true;
                ++stats_.uncorrectableErrors;
                break;
              case EccOutcome::Clean:
                break;
            }
        }
        // Blame: the per-thread CPI stack counts each demand read once,
        // at final completion (the retry path above `continue`s).
        if (req.kind == RequestKind::Read && req.thread != kThreadNone) {
            if (stats_.perThreadBlame.size() <= req.thread)
                stats_.perThreadBlame.resize(req.thread + 1);
            stats_.perThreadBlame[req.thread].merge(req.blame);
        }
        if (tracer_) {
            const int pid = tracePidChannel(channel_);
            if (req.corrected) {
                tracer_->instant(pid, kTraceTidQueue, "ecc-corrected",
                                 req.completion,
                                 Tracer::arg("id", req.id));
            }
            if (req.poisoned) {
                tracer_->instant(pid, kTraceTidQueue, "ecc-poisoned",
                                 req.completion,
                                 Tracer::arg("id", req.id));
            }
            // The terminal lifecycle event: every begun span ends
            // exactly once, here, whatever path the request took.
            tracer_->asyncEnd("dram", kSpanName[kindIndex(req.kind)],
                              req.id, pid, req.completion);
        }
        completed.push_back(req);
        pool_.release(handle);
    }
    inFlight_.erase(inFlight_.begin(), inFlight_.begin() + done);
}

void
MemoryController::tick(Cycle now, std::vector<DramRequest> &completed)
{
    // An injected bus stall occupies the data bus like a transfer
    // would, pushing every pending data phase out.
    if (injector_.active()) {
        const Cycle stall = injector_.sampleBusStall(now);
        if (stall > 0) {
            busFreeAt_ = std::max(busFreeAt_, now) + stall;
            // The stolen bus window is the fault's doing, not any
            // thread's burst.
            busGateCause_ = BlameComponent::FaultRetry;
            busOwner_ = kThreadNone;
            accountBusGate(now, busGateCause_, busOwner_);
        }
    }

    // Retire finished transactions first so their banks show as free.
    retire(now, completed);

    if (config_.refreshEnabled())
        serviceRefresh(now);

    tryIssue(now);
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    // The fault injector draws a random number every tick and
    // mitigation requests materialize on the system's next tick:
    // skipping either would desync RNG streams or delay preventive
    // refresh observably, so both pin the clock to real stepping.
    if (injector_.active() || !pendingMitigations_.empty())
        return now + 1;

    Cycle next = kCycleNever;
    if (!inFlight_.empty())
        next = std::min(next, inFlight_.front().completion);

    if (config_.refreshEnabled()) {
        const std::uint32_t n = banks_.size();
        for (std::uint32_t b = 0; b < n; ++b) {
            // A future deadline is itself the event; one already due
            // on a busy bank fires when the bank frees.
            next = std::min(next, banks_.nextRefreshAt[b] > now
                                      ? banks_.nextRefreshAt[b]
                                      : banks_.readyAt[b]);
        }
    }

    // Earliest cycle any queued request could be gathered as a
    // scheduling candidate.  Bank state and the bus window are frozen
    // between events, so the per-request bound is exact under frozen
    // state; anything that changes it earlier (a retire, a refresh)
    // is already in the min above.  Candidates clamp to now + 1
    // because tryIssue launches at most one transaction per cycle.
    const Cycle bus_gate = busFreeAt_ > table_.maxBusLead
                               ? busFreeAt_ - table_.maxBusLead
                               : 0;
    for (const std::vector<QueuedRef> &queue : queues_) {
        for (const QueuedRef &q : queue) {
            Cycle t = std::max(q.notBefore, banks_.readyAt[q.bank]);
            t = std::max(t, bus_gate);
            next = std::min(next, std::max(t, now + 1));
        }
    }
    return next;
}

void
MemoryController::dumpState(std::ostream &os) const
{
    os << "MemoryController[channel " << channel_ << "] scheduler="
       << schedulerName(scheduler_) << "\n";
    os << "  busFreeAt=" << busFreeAt_
       << " drainingWrites=" << (drainingWrites_ ? "yes" : "no")
       << " outstanding=" << outstanding() << "\n";
    os << "  banks:\n";
    for (std::uint32_t i = 0; i < banks_.size(); ++i) {
        os << "    [" << i << "] openRow=" << banks_.openRow[i]
           << " readyAt=" << banks_.readyAt[i];
        if (banks_.nextRefreshAt[i] != kCycleNever)
            os << " nextRefreshAt=" << banks_.nextRefreshAt[i];
        os << "\n";
    }
    // Every queue is dumped, empty or not (and whether or not ECC or
    // the hammer model is on): each counts into outstanding(), and a
    // conservation-checker diagnosis must show every request the count
    // covers.
    for (std::size_t k = 0; k < kNumRequestKinds; ++k) {
        os << "  " << kQueueName[k] << " (" << queues_[k].size()
           << "):\n";
        for (const QueuedRef &q : queues_[k]) {
            const DramRequest &r = pool_.at(q.h);
            os << "    id=" << r.id << " op=" << opLetter(r.kind)
               << " addr=0x" << std::hex << r.addr << std::dec
               << " bank=" << r.coord.bank << " row=" << r.coord.row
               << " thread="
               << (r.thread == kThreadNone
                       ? std::int64_t{-1}
                       : static_cast<std::int64_t>(r.thread))
               << " arrival=" << r.arrival
               << " notBefore=" << r.notBefore
               << " retries=" << r.retries << "\n";
        }
    }
    os << "  inFlight (" << inFlight_.size() << "):\n";
    for (const InFlightRef &f : inFlight_) {
        const DramRequest &r = pool_.at(f.h);
        os << "    id=" << r.id << " op=" << opLetter(r.kind)
           << " bank=" << r.coord.bank << " issued=" << r.issueTime
           << " completion=" << r.completion << "\n";
    }
    const FaultStats &f = injector_.stats();
    os << "  faults: busStalls=" << f.busStalls
       << " stallCycles=" << f.busStallCycles
       << " readErrors=" << f.readErrors
       << " enqueueDelays=" << f.enqueueDelays << "\n";
    os << "  retries: readRetries=" << stats_.readRetries
       << " retriesExhausted=" << stats_.retriesExhausted << "\n";
    os << "  blame:";
    for (std::size_t c = 0; c < kNumBlameComponents; ++c) {
        os << " " << blameComponentName(static_cast<BlameComponent>(c))
           << "=" << stats_.blameTotals.cycles[c];
    }
    os << "\n";
    for (std::size_t t = 0; t < stats_.interference.threads(); ++t) {
        const ThreadId blocked = static_cast<ThreadId>(t);
        os << "  interference[t" << t
           << "]: system=" << stats_.interference.at(blocked, kThreadNone);
        const std::size_t cols = stats_.interference.columns();
        for (std::size_t j = 0; j + 1 < cols; ++j) {
            os << " t" << j << "="
               << stats_.interference.at(blocked,
                                         static_cast<ThreadId>(j));
        }
        os << " total=" << stats_.interference.rowSum(blocked) << "\n";
    }
    os << "  refresh: issued=" << stats_.refreshes
       << " blockedCycles=" << stats_.refreshBlockedCycles << "\n";
    if (config_.ecc.enabled) {
        os << "  ecc: scrubReads=" << stats_.scrubReads
           << " corrected=" << stats_.correctedErrors
           << " uncorrectable=" << stats_.uncorrectableErrors
           << " checkCycles=" << stats_.eccCheckCycles << "\n";
    }
    if (config_.hammer.enabled) {
        const HammerStats &h = hammer_.stats();
        os << "  hammer: activations=" << h.activations
           << " crossings=" << h.thresholdCrossings
           << " flips=" << h.victimFlips
           << " corrected=" << h.victimCorrected
           << " uncorrectable=" << h.victimUncorrectable
           << " silent=" << h.silentCorruptions
           << " flippedRows=" << hammer_.flippedRows() << "\n";
        os << "  hammer: mitigationsRequested="
           << h.mitigationsRequested
           << " issued=" << h.mitigationsIssued
           << " cycles=" << h.mitigationCycles
           << " trackerEvictions=" << h.trackerEvictions
           << " pending=" << pendingMitigations_.size() << "\n";
    }
    const PowerStats &p = power_.stats();
    os << "  power: machine="
       << (power_.machineActive() ? "on" : "off")
       << " totalNj=" << p.totalEnergy
       << " bgNj=" << p.backgroundEnergy
       << " actNj=" << p.activateEnergy
       << " rdNj=" << p.readEnergy << " wrNj=" << p.writeEnergy
       << " refNj=" << p.refreshEnergy
       << " scrubNj=" << p.scrubEnergy
       << " mitNj=" << p.mitigationEnergy << "\n";
    os << "  power: pdEntries=" << p.powerdownEntries
       << " srEntries=" << p.selfRefreshEntries
       << " exitPenaltyCycles=" << p.exitPenaltyCycles
       << " refreshesSuppressed=" << p.refreshesSuppressed << "\n";
    for (std::uint32_t r = 0; r < power_.ranks(); ++r) {
        os << "    rank[" << r << "] energyNj=" << power_.rankEnergy(r)
           << " busyUntil=" << power_.busyUntil(r) << "\n";
    }
}

} // namespace smtdram
