#include "cache/hierarchy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smtdram
{

void
HierarchyConfig::validate() const
{
    fatal_if(l1i.lineBytes != l1d.lineBytes ||
                 l1d.lineBytes != l2.lineBytes ||
                 l2.lineBytes != l3.lineBytes,
             "all cache levels must share one line size");
    fatal_if(!isPowerOfTwo(pageBytes), "page size must be a power of 2");
}

Hierarchy::Hierarchy(const HierarchyConfig &config, MemoryPort &dram,
                     EventQueue &events, std::uint32_t num_threads)
    : config_(config),
      dram_(dram),
      events_(events),
      pageTables_(config.pageBytes, num_threads),
      itlb_(config.tlbEntries, config.tlbMissPenalty),
      dtlb_(config.tlbEntries, config.tlbMissPenalty),
      l1i_(config.l1i, "L1I"),
      l1d_(config.l1d, "L1D"),
      l2_(config.l2, "L2"),
      l3_(config.l3, "L3"),
      missSlots_(config.l1i.mshrs + config.l1d.mshrs +
                 config.prefetchMshrs),
      pendingL1d_(num_threads, 0),
      pendingBeyondL2_(num_threads, 0),
      pendingDram_(num_threads, 0)
{
    config_.validate();
    // Popped from the back: slot 0 is handed out first.
    for (auto s = static_cast<std::uint32_t>(missSlots_.size()); s-- > 0;)
        freeMissSlots_.push_back(s);
    missIndex_.reserve(missSlots_.size());
    dram_.setReadCallback([this](const DramRequest &req) {
        scheduleFill(std::max(req.completion + config_.dramReturnOverhead,
                              events_.now()),
                     req.addr);
    });
}

void
Hierarchy::scheduleFill(Cycle when, Addr line_addr)
{
    // The event runs with events_.now() == when.
    events_.schedule(when, [this, line_addr] {
        handleFill(line_addr, events_.now());
    });
}

Hierarchy::OutstandingMiss &
Hierarchy::allocateMiss(Addr line_addr)
{
    panic_if(freeMissSlots_.empty(),
             "miss table full: every slot holds an MSHR, so an access "
             "that passed its MSHR checks must find one free");
    const std::uint32_t slot = freeMissSlots_.back();
    freeMissSlots_.pop_back();
    missIndex_.insert(line_addr, slot);
    OutstandingMiss &m = missSlots_[slot];
    m.targets.clear();
    return m;
}

MissSource
Hierarchy::classifyMiss(Addr line_addr) const
{
    if (l2_.probe(line_addr))
        return MissSource::L2;
    if (l3_.probe(line_addr))
        return MissSource::L3;
    return MissSource::Dram;
}

AccessResult
Hierarchy::access(AccessKind kind, ThreadId tid, Addr vaddr, Cycle now)
{
    const bool is_fetch = kind == AccessKind::InstFetch;
    Tlb &tlb = is_fetch ? itlb_ : dtlb_;
    const Cycle tlb_penalty = tlb.lookup(tid, pt_->vpageOf(vaddr));
    const Addr paddr = pt_->translate(tid, vaddr);
    const Addr line = lineAlign(paddr);

    CacheArray &l1 = is_fetch ? l1i_ : l1d_;
    std::uint32_t &l1_mshr_used = is_fetch ? mshrUsedL1i_ : mshrUsedL1d_;

    AccessResult res;
    res.tlbPenalty = tlb_penalty;

    if (l1.accessIfHit(line, kind == AccessKind::Store)) {
        res.status = AccessResult::Status::Hit;
        res.latency = l1.config().latency + tlb_penalty;
        return res;
    }

    // --- L1 miss: coalesce into an in-flight line if possible ------
    if (const std::uint32_t *slot = missIndex_.find(line)) {
        OutstandingMiss &m = missSlots_[*slot];
        const bool needs_l1_slot =
            is_fetch ? !m.fillL1i : !m.fillL1d;
        if (needs_l1_slot && l1_mshr_used >= l1.config().mshrs)
            return blocked(res, generation_);
        if (needs_l1_slot) {
            ++l1_mshr_used;
            (is_fetch ? m.fillL1i : m.fillL1d) = true;
            ++generation_;
        }
        l1.access(line, false);  // record the demand miss

        Target t;
        t.missId = nextMissId_++;
        t.tid = tid;
        t.kind = kind;
        t.countsBeyondL2 = m.source != MissSource::L2;
        t.countsDram = m.source == MissSource::Dram;
        if (!is_fetch) {
            ++pendingL1d_[tid];
            if (kind == AccessKind::Store)
                m.dirtyOnFill = true;
        }
        if (t.countsBeyondL2)
            ++pendingBeyondL2_[tid];
        if (t.countsDram)
            ++pendingDram_[tid];
        m.targets.push_back(t);
        ++coalescedTargets_;

        res.status = AccessResult::Status::Pending;
        res.missId = t.missId;
        return res;
    }

    // --- New miss: classify, check resources, then commit ----------
    const MissSource source = classifyMiss(line);

    if (l1_mshr_used >= l1.config().mshrs)
        return blocked(res, generation_);
    if (source != MissSource::L2 && mshrUsedL2_ >= l2_.config().mshrs)
        return blocked(res, generation_);
    if (source == MissSource::Dram) {
        if (mshrUsedL3_ >= l3_.config().mshrs)
            return blocked(res, generation_);
        if (!dram_.canAccept(line, MemOp::Read))
            return blocked(res, 0);
    }

    // Committed: record demand stats (consistent with the probes).
    l1.access(line, false);
    l2_.access(line, false);
    if (source != MissSource::L2)
        l3_.access(line, false);

    if (prefetchedLines_.erase(line))
        ++prefetchesUseful_;

    OutstandingMiss &m = allocateMiss(line);
    m.source = source;
    m.fillL1i = is_fetch;
    m.fillL1d = !is_fetch;
    m.dirtyOnFill = kind == AccessKind::Store;
    m.prefetch = false;

    Target t;
    t.missId = nextMissId_++;
    t.tid = tid;
    t.kind = kind;
    t.countsBeyondL2 = source != MissSource::L2;
    t.countsDram = source == MissSource::Dram;
    m.targets.push_back(t);

    ++l1_mshr_used;
    if (source != MissSource::L2)
        ++mshrUsedL2_;
    if (source == MissSource::Dram)
        ++mshrUsedL3_;

    if (!is_fetch)
        ++pendingL1d_[tid];
    if (t.countsBeyondL2)
        ++pendingBeyondL2_[tid];
    if (t.countsDram)
        ++pendingDram_[tid];

    ++generation_;

    switch (source) {
      case MissSource::L2:
        scheduleFill(now + l1.config().latency + l2_.config().latency,
                     line);
        break;
      case MissSource::L3:
        scheduleFill(now + l1.config().latency + l2_.config().latency +
                         l3_.config().latency,
                     line);
        break;
      case MissSource::Dram: {
        ThreadSnapshot snap;
        if (snapshotProvider_)
            snap = snapshotProvider_(tid);
        // "including this one" — the counter was bumped above, but a
        // provider computing from its own state may not know yet.
        snap.outstandingRequests =
            std::max(snap.outstandingRequests, pendingDram_[tid]);
        // The processor waits on loads and fetches; store fills are
        // not critical (criticality-based scheduling input).
        dram_.enqueueRead(line, tid, snap, now,
                          kind != AccessKind::Store);
        ++dramReadsIssued_;
        if (config_.prefetchNextLine)
            maybePrefetch(tid, line, now);
        break;
      }
    }

    res.status = AccessResult::Status::Pending;
    res.missId = t.missId;
    return res;
}

void
Hierarchy::replayBlocked(AccessKind kind, ThreadId tid, Addr vaddr)
{
    Tlb &tlb = kind == AccessKind::InstFetch ? itlb_ : dtlb_;
    (void)tlb.lookup(tid, pt_->vpageOf(vaddr));
    ++blockedAccesses_;
}

void
Hierarchy::maybePrefetch(ThreadId tid, Addr demand_line, Cycle now)
{
    const Addr line = demand_line + config_.l1d.lineBytes;
    if (mshrUsedPrefetch_ >= config_.prefetchMshrs)
        return;
    if (missIndex_.find(line) || l2_.probe(line) || l3_.probe(line))
        return;
    if (!dram_.canAccept(line, MemOp::Read))
        return;

    OutstandingMiss &m = allocateMiss(line);
    m.source = MissSource::Dram;
    m.fillL1i = false;
    m.fillL1d = false;
    m.dirtyOnFill = false;
    m.prefetch = true;
    ++mshrUsedPrefetch_;
    ++generation_;

    ThreadSnapshot snap;
    if (snapshotProvider_)
        snap = snapshotProvider_(tid);
    dram_.enqueueRead(line, tid, snap, now, /* critical */ false);
    ++prefetchesIssued_;
    if (prefetchedLines_.size() > 65536)
        prefetchedLines_.clear();
    if (!prefetchedLines_.find(line))
        prefetchedLines_.insert(line, true);
}

void
Hierarchy::writebackInto(CacheArray &level, Addr line_addr, Cycle now)
{
    // Already present: absorbed (marked dirty, no victim).
    const CacheArray::Victim victim = level.fill(line_addr, true);
    if (!victim.valid || !victim.dirty)
        return;
    if (&level == &l2_) {
        writebackInto(l3_, victim.lineAddr, now);
    } else {
        panic_if(&level != &l3_, "writeback into unexpected level");
        queueDramWrite(victim.lineAddr, now);
    }
}

void
Hierarchy::queueDramWrite(Addr line_addr, Cycle now)
{
    if (pendingWritebacks_.empty() &&
        dram_.canAccept(line_addr, MemOp::Write)) {
        dram_.enqueueWrite(line_addr, now);
        ++dramWritesIssued_;
    } else {
        pendingWritebacks_.push_back(line_addr);
    }
}

void
Hierarchy::handleFill(Addr line_addr, Cycle now)
{
    const std::uint32_t *found = missIndex_.find(line_addr);
    panic_if(found == nullptr, "fill for unknown line %#llx",
             (unsigned long long)line_addr);
    const std::uint32_t slot = *found;
    missIndex_.erase(line_addr);
    const OutstandingMiss &m = missSlots_[slot];
    ++generation_;

    // Install outermost-first so inner victims can land outward.  A
    // level that already holds the line keeps it as is (the L1D only
    // takes the store's dirty bit).
    if (m.source == MissSource::Dram) {
        const CacheArray::Victim v = l3_.fill(line_addr, false);
        if (v.valid && v.dirty)
            queueDramWrite(v.lineAddr, now);
    }
    if (m.source != MissSource::L2) {
        const CacheArray::Victim v = l2_.fill(line_addr, false);
        if (v.valid && v.dirty)
            writebackInto(l3_, v.lineAddr, now);
    }
    if (m.fillL1i) {
        // Instruction lines are never dirty.
        l1i_.fill(line_addr, false);
    }
    if (m.fillL1d) {
        const CacheArray::Victim v = l1d_.fill(line_addr, m.dirtyOnFill);
        if (v.valid && v.dirty)
            writebackInto(l2_, v.lineAddr, now);
    }

    // Release MSHRs.
    if (m.prefetch) {
        panic_if(mshrUsedPrefetch_ == 0, "prefetch MSHR underflow");
        --mshrUsedPrefetch_;
    }
    if (m.fillL1i) {
        panic_if(mshrUsedL1i_ == 0, "L1I MSHR underflow");
        --mshrUsedL1i_;
    }
    if (m.fillL1d) {
        panic_if(mshrUsedL1d_ == 0, "L1D MSHR underflow");
        --mshrUsedL1d_;
    }
    if (!m.prefetch) {
        if (m.source != MissSource::L2) {
            panic_if(mshrUsedL2_ == 0, "L2 MSHR underflow");
            --mshrUsedL2_;
        }
        if (m.source == MissSource::Dram) {
            panic_if(mshrUsedL3_ == 0, "L3 MSHR underflow");
            --mshrUsedL3_;
        }
    }

    // Complete every coalesced target.
    for (const Target &t : m.targets) {
        if (t.kind != AccessKind::InstFetch) {
            panic_if(pendingL1d_[t.tid] == 0, "pendingL1d underflow");
            --pendingL1d_[t.tid];
        }
        if (t.countsBeyondL2) {
            panic_if(pendingBeyondL2_[t.tid] == 0,
                     "pendingBeyondL2 underflow");
            --pendingBeyondL2_[t.tid];
        }
        if (t.countsDram) {
            panic_if(pendingDram_[t.tid] == 0, "pendingDram underflow");
            --pendingDram_[t.tid];
        }
        if (missCallback_)
            missCallback_(t.missId, now);
    }
    freeMissSlots_.push_back(slot);
}

void
Hierarchy::preallocate(ThreadId tid, Addr vstart, std::uint64_t bytes)
{
    const Addr page = Addr{1} << pt_->pageShift();
    for (Addr v = vstart; v < vstart + bytes; v += page)
        (void)pt_->translate(tid, v);
}

void
Hierarchy::prewarmLine(ThreadId tid, Addr vaddr, bool into_l1)
{
    const Addr line = lineAlign(pt_->translate(tid, vaddr));
    ++generation_;
    l3_.fill(line, false);
    l2_.fill(line, false);
    if (into_l1)
        l1d_.fill(line, false);
}

void
Hierarchy::tick(Cycle now)
{
    while (!pendingWritebacks_.empty() &&
           dram_.canAccept(pendingWritebacks_.front(), MemOp::Write)) {
        dram_.enqueueWrite(pendingWritebacks_.front(), now);
        ++dramWritesIssued_;
        pendingWritebacks_.pop_front();
    }
}

void
Hierarchy::resetStats()
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    l3_.resetStats();
    itlb_.resetStats();
    dtlb_.resetStats();
    dramReadsIssued_ = 0;
    dramWritesIssued_ = 0;
    blockedAccesses_ = 0;
    coalescedTargets_ = 0;
    prefetchesIssued_ = 0;
    prefetchesUseful_ = 0;
}

} // namespace smtdram
