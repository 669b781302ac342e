#include "cpu/smt_core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace smtdram
{

void
CoreConfig::validate() const
{
    fatal_if(numThreads == 0, "need at least one hardware thread");
    fatal_if(fetchThreadsPerCycle == 0 || fetchWidth == 0,
             "fetch width parameters must be non-zero");
    fatal_if(robPerThread == 0 || !isPowerOfTwo(robPerThread),
             "ROB size per thread must be a power of 2");
    // Dependency distances are 8-bit, so a producer is always still
    // inside the ring when its consumer enters.
    fatal_if(robPerThread < 256,
             "ROB per thread must be at least 256 to cover 8-bit "
             "dependency distances");
    fatal_if(intRegs <= archRegsPerThread * numThreads ||
                 fpRegs <= archRegsPerThread * numThreads,
             "physical registers do not cover architectural state "
             "of %u threads", numThreads);
}

SmtCore::SmtCore(const CoreConfig &config, Hierarchy &hierarchy)
    : config_(config),
      hierarchy_(hierarchy),
      predictor_(BranchPredictorConfig{}, config.numThreads),
      threads_(config.numThreads),
      perf_(config.numThreads),
      intIqOcc_(config.numThreads, 0),
      fpIqOcc_(config.numThreads, 0),
      robOcc_(config.numThreads, 0),
      freeIntRegs_(config.intRegs -
                   config.archRegsPerThread * config.numThreads),
      freeFpRegs_(config.fpRegs -
                  config.archRegsPerThread * config.numThreads),
      robShift_(floorLog2(config.robPerThread)),
      robHighWater_(config.numThreads, 0),
      intIqHighWater_(config.numThreads, 0),
      fetchStallSince_(config.numThreads, kCycleNever)
{
    config_.validate();
    for (auto &t : threads_) {
        t.rob.resize(config_.robPerThread);
        t.fetchQueue.init(config_.fetchQueueCap);
    }
    writeBuffer_.init(config_.writeBufferCap);
    intReady_.reserve(config_.intIqSize);
    fpReady_.reserve(config_.fpIqSize);

    fatal_if((std::uint64_t{config_.numThreads} << robShift_) >= kNoSlot,
             "%u threads x %u ROB entries overflow 32-bit slot indices",
             config_.numThreads, config_.robPerThread);
    // The completion ring must outlast the longest issue-to-complete
    // delay: an execution latency, or a load's L1D hit after a TLB
    // miss.  At least 64 buckets, one word of the busy bitmap.
    Cycle longest = execLatency(OpClass::Load) +
                    hierarchy_.config().l1d.latency +
                    hierarchy_.config().tlbMissPenalty;
    for (OpClass c : {OpClass::IntAlu, OpClass::IntMult, OpClass::FpAlu,
                      OpClass::FpMult, OpClass::Load, OpClass::Store,
                      OpClass::Branch})
        longest = std::max(longest, execLatency(c));
    std::size_t ring = 64;
    while (ring <= longest)
        ring *= 2;
    doneHead_.assign(ring, kNoSlot);
    doneBusy_.assign(ring / 64, 0);
    missWaiters_.reserve(config_.lqSize + config_.numThreads);

    hierarchy_.setMissCallback(
        [this](std::uint64_t miss_id, Cycle when) {
            onMissComplete(miss_id, when);
        });
    hierarchy_.setSnapshotProvider(
        [this](ThreadId tid) { return snapshot(tid); });
}

void
SmtCore::resetHighWater()
{
    // The marks restart from the live occupancy, not zero: a ROB
    // that never drains below 100 entries has a high-water of at
    // least 100 over any window.
    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        robHighWater_[tid] = robOcc_[tid];
        intIqHighWater_[tid] = intIqOcc_[tid];
    }
}

void
SmtCore::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (!tracer_)
        return;
    tracer_->nameProcess(kTracePidCpu, "cpu");
    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        tracer_->nameThread(kTracePidCpu, tid,
                            "thread" + std::to_string(tid));
    }
}

void
SmtCore::bindStream(ThreadId tid, InstStream *stream)
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    ThreadState &t = threads_[tid];
    t.stream = stream;
    if (stream != nullptr)
        return;
    // Parking must discard a stashed (fetched-but-blocked) op: only a
    // fetch retry can consume it, a parked slot never fetches, and
    // quiescence requires the stash to be empty — keeping it would
    // wedge the migration waiting on this slot forever.
    t.stashedOpValid = false;
    // Only bound slots are traced: end the parked slot's span here,
    // before the core the thread moves to can open its next one.
    Cycle &since = fetchStallSince_[tid];
    if (tracer_ && since != kCycleNever) {
        tracer_->asyncEnd("cpu", "fetch-stall", tid, kTracePidCpu,
                          lastCycle_);
        since = kCycleNever;
    }
}

bool
SmtCore::quiescent(ThreadId tid) const
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    const ThreadState &t = threads_[tid];
    return robOcc_[tid] == 0 && t.fetchQueue.empty() &&
           !t.stashedOpValid && !t.awaitingBranch;
}

void
SmtCore::migrateIn(ThreadId tid, InstStream *stream, Cycle resume_at)
{
    panic_if(tid >= threads_.size(), "thread %u out of range", tid);
    panic_if(!quiescent(tid),
             "thread %u migrated onto a non-quiescent slot", tid);
    ThreadState &t = threads_[tid];
    t.stream = stream;
    t.fetchResumeAt = std::max(t.fetchResumeAt, resume_at);
    // The new core's I-cache knows nothing about this thread; drop
    // the line-reuse shortcut so the first fetch probes for real.
    t.lastFetchLine = kAddrInvalid;
}

ThreadSnapshot
SmtCore::snapshot(ThreadId tid) const
{
    ThreadSnapshot s;
    s.outstandingRequests = hierarchy_.pendingDramReads(tid);
    s.robOccupancy = robOcc_[tid];
    s.iqOccupancy = intIqOcc_[tid];
    return s;
}

SmtCore::DynInst &
SmtCore::robSlot(ThreadId tid, InstSeq seq)
{
    return threads_[tid].rob[seq & (config_.robPerThread - 1)];
}

const SmtCore::DynInst &
SmtCore::robSlot(ThreadId tid, InstSeq seq) const
{
    return threads_[tid].rob[seq & (config_.robPerThread - 1)];
}

void
SmtCore::linkProducer(ThreadId tid, DynInst &c, unsigned operand,
                      std::uint8_t dist)
{
    c.nextConsumer[operand] = kNoLink;
    if (dist == 0)
        return;
    if (static_cast<InstSeq>(dist) > c.seq)
        return;  // producer precedes the measured stream
    const InstSeq pseq = c.seq - dist;
    if (pseq < threads_[tid].robHead)
        return;  // producer already committed
    DynInst &p = robSlot(tid, pseq);
    panic_if(p.seq != pseq, "ROB ring corrupted (seq %llu vs %llu)",
             (unsigned long long)p.seq, (unsigned long long)pseq);
    if (!producesValue(p.op.cls) || p.state == DynInst::State::Completed)
        return;
    c.nextConsumer[operand] = p.consumers;
    p.consumers = (c.seq << 1) | operand;
    ++c.pending;
}

void
SmtCore::makeReady(ThreadId tid, const DynInst &c)
{
    std::vector<ReadyRef> &list = c.isFp ? fpReady_ : intReady_;
    const auto pos = std::upper_bound(
        list.begin(), list.end(), c.age,
        [](std::uint64_t age, const ReadyRef &r) { return age < r.age; });
    list.insert(pos, ReadyRef{c.age, c.seq, tid});
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
SmtCore::commitStage()
{
    const std::uint32_t n = config_.numThreads;
    const std::uint64_t start = commitRotation_++;
    // Every thread stalled on the last pass that left width unused,
    // and only a completion or a freed write-buffer slot unstalls one.
    if (!commitPending_)
        return;

    std::uint32_t budget = config_.commitWidth;
    ThreadId tid = static_cast<ThreadId>(start % n);
    for (std::uint32_t i = 0; i < n && budget > 0;
         ++i, tid = tid + 1 == n ? 0 : tid + 1) {
        ThreadState &t = threads_[tid];
        while (budget > 0 && t.robHead < t.robTail) {
            DynInst &slot = robSlot(tid, t.robHead);
            panic_if(slot.seq != t.robHead, "commit ring mismatch");
            if (slot.state != DynInst::State::Completed)
                break;
            if (slot.op.cls == OpClass::Store) {
                if (writeBuffer_.size() >= config_.writeBufferCap)
                    break;  // this thread's commit stalls
                writeBuffer_.push_back(
                    PendingStore{tid, slot.op.effAddr});
            }
            if (producesValue(slot.op.cls)) {
                if (slot.isFp)
                    ++freeFpRegs_;
                else
                    ++freeIntRegs_;
            }
            if (slot.op.cls == OpClass::Load) {
                panic_if(lqUsed_ == 0, "LQ underflow");
                --lqUsed_;
            }
            if (slot.op.cls == OpClass::Store) {
                panic_if(sqUsed_ == 0, "SQ underflow");
                --sqUsed_;
            }
            slot.state = DynInst::State::Empty;
            panic_if(robOcc_[tid] == 0, "ROB occupancy underflow");
            --robOcc_[tid];
            ++t.robHead;
            ++perf_[tid].committedInsts;
            ++totalCommitted_;
            --budget;
        }
    }
    if (budget < config_.commitWidth)
        dispatchWakeAt_ = 0;  // freed ROB, register and LSQ space
    commitPending_ = budget == 0;
}

// --------------------------------------------------------------------
// Complete
// --------------------------------------------------------------------

void
SmtCore::markCompleted(ThreadId tid, InstSeq seq, Cycle now)
{
    ThreadState &t = threads_[tid];
    if (seq < t.robHead)
        return;  // already committed (should not happen)
    DynInst &slot = robSlot(tid, seq);
    if (slot.seq != seq || slot.state == DynInst::State::Completed ||
        slot.state == DynInst::State::Empty) {
        return;
    }
    slot.state = DynInst::State::Completed;
    commitPending_ = true;

    // Wake the consumers chained at their dispatch.
    for (std::uint64_t link = slot.consumers; link != kNoLink;) {
        const InstSeq cseq = link >> 1;
        DynInst &c = robSlot(tid, cseq);
        panic_if(c.seq != cseq, "wakeup chain names a stale ROB slot");
        panic_if(c.state != DynInst::State::Waiting || c.pending == 0,
                 "wakeup chain reached a consumer not waiting on it");
        link = c.nextConsumer[link & 1];
        if (--c.pending == 0)
            makeReady(tid, c);
    }
    slot.consumers = kNoLink;

    if (slot.mispredicted && t.awaitingBranch &&
        t.awaitedBranchSeq == seq) {
        // Redirect: fetch restarts after the fixed front-end penalty.
        t.awaitingBranch = false;
        t.fetchResumeAt = now + config_.mispredictPenalty;
    }
}

void
SmtCore::scheduleCompletion(ThreadId tid, DynInst &slot, Cycle now,
                            Cycle when)
{
    panic_if(when <= now || when - now >= doneHead_.size(),
             "completion at cycle %llu (now %llu) does not fit the "
             "%zu-cycle ring", (unsigned long long)when,
             (unsigned long long)now, doneHead_.size());
    const std::size_t b = when & (doneHead_.size() - 1);
    slot.nextDone = doneHead_[b];
    doneHead_[b] = (tid << robShift_) |
                   static_cast<std::uint32_t>(
                       slot.seq & (config_.robPerThread - 1));
    doneBusy_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++donePending_;
}

Cycle
SmtCore::earliestCompletion() const
{
    // Pending completions lie in [doneFrom_, doneFrom_ + ring size):
    // walk the busy bitmap from doneFrom_'s bucket, wrapping once.
    const std::size_t mask = doneHead_.size() - 1;
    std::size_t idx = doneFrom_ & mask;
    for (Cycle offset = 0;;) {
        panic_if(offset > doneHead_.size(), "completion ring is empty");
        const std::uint64_t bits = doneBusy_[idx >> 6] >> (idx & 63);
        if (bits != 0)
            return doneFrom_ + offset + std::countr_zero(bits);
        const std::size_t step = 64 - (idx & 63);
        offset += step;
        idx = (idx + step) & mask;
    }
}

void
SmtCore::completeStage(Cycle now)
{
    const std::size_t mask = doneHead_.size() - 1;
    while (donePending_ > 0) {
        const Cycle when = earliestCompletion();
        if (when > now)
            break;
        const std::size_t b = when & mask;
        std::uint32_t link = doneHead_[b];
        doneHead_[b] = kNoSlot;
        doneBusy_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        while (link != kNoSlot) {
            const ThreadId tid = link >> robShift_;
            const DynInst &slot =
                threads_[tid].rob[link & (config_.robPerThread - 1)];
            link = slot.nextDone;
            --donePending_;
            markCompleted(tid, slot.seq, now);
        }
        doneFrom_ = when + 1;
    }
    doneFrom_ = now + 1;
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

void
SmtCore::issueStage(Cycle now)
{
    // Only ready entries are visited, in global dispatch order: an
    // entry with a pending producer can neither issue nor change any
    // state, so skipping it keeps the decisions of an in-order walk
    // over the whole queue.
    if (intReady_.empty() && fpReady_.empty())
        return;

    std::uint32_t alu = config_.intAluUnits;
    std::uint32_t mult = config_.intMultUnits;
    std::uint32_t ports = config_.cachePorts;
    std::uint32_t int_budget = config_.intIssueWidth;
    std::uint32_t issued_int = 0;

    auto issue_from = [&](std::vector<ReadyRef> &ready, bool is_fp,
                          std::uint32_t &budget,
                          std::uint32_t &fu_a, std::uint32_t &fu_b) {
        size_t keep = 0;
        size_t i = 0;
        for (; i < ready.size(); ++i) {
            // Once the width or both functional units are exhausted
            // nothing further can issue; the tail survives as-is.
            if (budget == 0 || (fu_a == 0 && fu_b == 0))
                break;
            const ReadyRef ref = ready[i];
            DynInst &slot = robSlot(ref.tid, ref.seq);
            panic_if(slot.seq != ref.seq, "IQ ring mismatch");
            panic_if(slot.state != DynInst::State::Waiting,
                     "non-waiting inst in IQ");
            const OpClass cls = slot.op.cls;
            std::uint32_t *fu = nullptr;
            bool needs_port = false;
            if (is_fp) {
                fu = (cls == OpClass::FpAlu) ? &fu_a : &fu_b;
            } else if (cls == OpClass::IntMult) {
                fu = &fu_b;
            } else {
                fu = &fu_a;
                needs_port = cls == OpClass::Load;
            }
            if (*fu == 0 || (needs_port && ports == 0)) {
                ready[keep++] = ref;  // ready, no unit/port
                continue;
            }
            if (cls == OpClass::Load) {
                if (slot.blockedGen == hierarchy_.resourceGeneration()) {
                    // Nothing the probe checks changed since it
                    // blocked: replay its side effects only.
                    hierarchy_.replayBlocked(AccessKind::Load, ref.tid,
                                             slot.op.effAddr);
                    ready[keep++] = ref;
                    continue;
                }
                AccessResult r = hierarchy_.access(
                    AccessKind::Load, ref.tid, slot.op.effAddr, now);
                if (r.status == AccessResult::Status::Blocked) {
                    // Structural hazard: replay later.
                    slot.blockedGen = r.blockedGen;
                    ready[keep++] = ref;
                    continue;
                }
                --ports;
                if (r.status == AccessResult::Status::Hit) {
                    scheduleCompletion(ref.tid, slot, now,
                                       now + execLatency(cls) + r.latency);
                } else {
                    addMissWaiter(r.missId, ref.tid, ref.seq, false);
                }
                ++perf_[ref.tid].loads;
            } else {
                scheduleCompletion(ref.tid, slot, now,
                                   now + execLatency(cls));
                if (cls == OpClass::Store)
                    ++perf_[ref.tid].stores;
            }
            --*fu;
            --budget;
            slot.state = DynInst::State::Issued;
            if (is_fp) {
                --fpIqOcc_[ref.tid];
                --fpIqUsed_;
            } else {
                --intIqOcc_[ref.tid];
                --intIqUsed_;
                ++issued_int;
            }
            dispatchWakeAt_ = 0;  // freed an issue-queue entry
        }
        if (keep != i)
            ready.erase(ready.begin() + keep, ready.begin() + i);
    };

    issue_from(intReady_, false, int_budget, alu, mult);

    std::uint32_t fp_budget = config_.fpIssueWidth;
    std::uint32_t fp_alu = config_.fpAluUnits;
    std::uint32_t fp_mult = config_.fpMultUnits;
    issue_from(fpReady_, true, fp_budget, fp_alu, fp_mult);

    if (issued_int > 0)
        ++intIssueActiveCycles_;
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
SmtCore::dispatchStage(Cycle now)
{
    const std::uint32_t n = config_.numThreads;
    const std::uint64_t start = dispatchRotation_++;
    // Every thread stalled on the last pass that left width unused;
    // nothing that could unstall one has happened since.
    if (now < dispatchWakeAt_)
        return;

    std::uint32_t budget = config_.dispatchWidth;
    Cycle wake = kCycleNever;  // earliest still-decoding front
    bool progress = true;
    std::vector<std::uint8_t> &stalled = dispatchStalled_;
    stalled.assign(n, 0);
    while (budget > 0 && progress) {
        progress = false;
        ThreadId tid = static_cast<ThreadId>(start % n);
        for (std::uint32_t i = 0; i < n && budget > 0;
             ++i, tid = tid + 1 == n ? 0 : tid + 1) {
            if (stalled[tid])
                continue;
            ThreadState &t = threads_[tid];
            if (t.fetchQueue.empty()) {
                stalled[tid] = 1;
                continue;
            }
            const FetchedInst &f = t.fetchQueue.front();
            if (f.readyAt > now) {
                wake = std::min(wake, f.readyAt);
                stalled[tid] = 1;
                continue;
            }
            const bool is_fp = isFpClass(f.op.cls);

            // Structural checks: ROB, IQ, registers, LSQ.
            if (t.robTail - t.robHead >= config_.robPerThread ||
                (is_fp ? fpIqUsed_ >= config_.fpIqSize
                       : intIqUsed_ >= config_.intIqSize) ||
                (producesValue(f.op.cls) &&
                 (is_fp ? freeFpRegs_ == 0 : freeIntRegs_ == 0)) ||
                (f.op.cls == OpClass::Load && lqUsed_ >= config_.lqSize) ||
                (f.op.cls == OpClass::Store &&
                 sqUsed_ >= config_.sqSize)) {
                stalled[tid] = 1;
                continue;
            }

            panic_if(f.seq != t.robTail, "dispatch out of order");
            DynInst &slot = robSlot(tid, f.seq);
            slot.op = f.op;
            slot.seq = f.seq;
            slot.age = nextAge_++;
            slot.consumers = kNoLink;
            slot.blockedGen = 0;
            slot.state = DynInst::State::Waiting;
            slot.pending = 0;
            slot.mispredicted = f.mispredicted;
            slot.isFp = is_fp;
            linkProducer(tid, slot, 0, f.op.dep1);
            linkProducer(tid, slot, 1, f.op.dep2);
            if (slot.pending == 0) {
                // Youngest entry: the back of its ready list.
                (is_fp ? fpReady_ : intReady_)
                    .push_back(ReadyRef{slot.age, slot.seq, tid});
            }

            if (producesValue(f.op.cls)) {
                if (is_fp)
                    --freeFpRegs_;
                else
                    --freeIntRegs_;
            }
            if (f.op.cls == OpClass::Load)
                ++lqUsed_;
            if (f.op.cls == OpClass::Store)
                ++sqUsed_;

            if (is_fp) {
                ++fpIqOcc_[tid];
                ++fpIqUsed_;
            } else {
                ++intIqOcc_[tid];
                ++intIqUsed_;
                intIqHighWater_[tid] =
                    std::max(intIqHighWater_[tid], intIqOcc_[tid]);
            }
            ++robOcc_[tid];
            robHighWater_[tid] =
                std::max(robHighWater_[tid], robOcc_[tid]);
            ++t.robTail;
            t.fetchQueue.pop_front();
            --budget;
            progress = true;
        }
    }
    // Width left over means every thread stalled: sleep until the
    // earliest decoding front matures or a resource frees.
    dispatchWakeAt_ = budget == 0 ? 0 : wake;
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

std::uint32_t
SmtCore::fetchFromThread(ThreadId tid, std::uint32_t budget, Cycle now)
{
    ThreadState &t = threads_[tid];
    std::uint32_t count = 0;

    while (count < budget && t.fetchQueue.size() < config_.fetchQueueCap) {
        MicroOp op;
        if (t.stashedOpValid) {
            op = t.stashedOp;
            t.stashedOpValid = false;
        } else {
            op = t.stream->next();
        }

        const Addr line =
            op.pc & ~static_cast<Addr>(
                        hierarchy_.config().l1i.lineBytes - 1);
        if (line != t.lastFetchLine) {
            AccessResult r = hierarchy_.access(AccessKind::InstFetch,
                                               tid, op.pc, now);
            if (r.status == AccessResult::Status::Blocked) {
                t.stashedOp = op;
                t.stashedOpValid = true;
                break;
            }
            t.lastFetchLine = line;
            if (r.status == AccessResult::Status::Pending) {
                t.icacheBlocked = true;
                addMissWaiter(r.missId, tid, 0, true);
            }
        }

        FetchedInst f;
        f.op = op;
        f.seq = t.nextSeq++;
        f.readyAt = now + config_.decodeStages;
        f.mispredicted = false;

        if (op.cls == OpClass::Branch) {
            const BranchPrediction pred = predictor_.predict(tid, op);
            const bool correct = predictor_.update(tid, op, pred);
            f.mispredicted = !correct;
            ++perf_[tid].branches;
            if (!correct)
                ++perf_[tid].mispredicts;
        }

        if (t.fetchQueue.empty())
            dispatchWakeAt_ = std::min(dispatchWakeAt_, f.readyAt);
        t.fetchQueue.push_back(f);
        ++perf_[tid].fetchedInsts;
        ++count;

        if (op.cls == OpClass::Branch) {
            if (f.mispredicted) {
                // Fetch freezes until the branch resolves.
                t.awaitingBranch = true;
                t.awaitedBranchSeq = f.seq;
                break;
            }
            if (op.taken) {
                // A taken branch ends this thread's fetch group and
                // redirects the fetch line.
                t.lastFetchLine = kAddrInvalid;
                break;
            }
        }
        if (t.icacheBlocked)
            break;
    }
    return count;
}

bool
SmtCore::fetchable(const ThreadState &t, Cycle now) const
{
    return t.stream != nullptr && !t.icacheBlocked && !t.awaitingBranch &&
           now >= t.fetchResumeAt &&
           t.fetchQueue.size() < config_.fetchQueueCap;
}

void
SmtCore::traceFetchStall(ThreadId tid, bool can_fetch, Cycle now)
{
    // One async span per window in which this thread cannot be
    // fetched from, labeled with what gates it.  A slot with no bound
    // stream holds no thread here (on a multi-socket machine, the
    // thread runs on another core), so it is not traced.
    const ThreadState &t = threads_[tid];
    if (t.stream == nullptr)
        return;
    Cycle &since = fetchStallSince_[tid];
    if (!can_fetch && since == kCycleNever) {
        since = now;
        const char *why = t.icacheBlocked ? "icache"
                          : t.awaitingBranch ? "branch"
                          : now < t.fetchResumeAt ? "redirect"
                                                  : "fetch-queue-full";
        tracer_->asyncBegin("cpu", "fetch-stall", tid, kTracePidCpu, now,
                            std::string("{\"reason\":\"") + why +
                                "\",\"thread\":" + std::to_string(tid) +
                                "}");
    } else if (can_fetch && since != kCycleNever) {
        tracer_->asyncEnd("cpu", "fetch-stall", tid, kTracePidCpu, now);
        since = kCycleNever;
    }
}

void
SmtCore::fetchStage(Cycle now)
{
    const std::uint32_t n = config_.numThreads;
    std::vector<FetchThreadState> &states = fetchStates_;
    states.assign(n, FetchThreadState{});
    for (ThreadId tid = 0; tid < n; ++tid) {
        const ThreadState &t = threads_[tid];
        FetchThreadState &s = states[tid];
        s.tid = tid;
        s.fetchable = fetchable(t, now);
        s.frontEndCount = static_cast<std::uint32_t>(
            t.fetchQueue.size() + intIqOcc_[tid] + fpIqOcc_[tid]);
        s.pendingDataMisses = hierarchy_.pendingDataMisses(tid);
        s.pendingL2Misses = hierarchy_.pendingL2Misses(tid);
        if (tracer_)
            traceFetchStall(tid, s.fetchable, now);
    }

    std::vector<ThreadId> &order = fetchOrder_;
    rankFetchThreads(config_.fetchPolicy, states, fetchRotation_++,
                     order);

    std::uint32_t budget = config_.fetchWidth;
    std::uint32_t threads_used = 0;
    for (ThreadId tid : order) {
        if (budget == 0 || threads_used >= config_.fetchThreadsPerCycle)
            break;
        const std::uint32_t got = fetchFromThread(tid, budget, now);
        if (got > 0) {
            budget -= got;
            ++threads_used;
        }
    }
}

// --------------------------------------------------------------------
// Write buffer
// --------------------------------------------------------------------

void
SmtCore::drainWriteBuffer(Cycle now)
{
    if (writeBuffer_.empty())
        return;
    const PendingStore &s = writeBuffer_.front();
    if (wbBlockedGen_ == hierarchy_.resourceGeneration()) {
        hierarchy_.replayBlocked(AccessKind::Store, s.tid, s.vaddr);
        return;  // still blocked: retry next cycle
    }
    const AccessResult r =
        hierarchy_.access(AccessKind::Store, s.tid, s.vaddr, now);
    if (r.status == AccessResult::Status::Blocked) {
        wbBlockedGen_ = r.blockedGen;
        return;  // retry next cycle
    }
    // Hit: written.  Pending: the fill installs the line dirty.
    writeBuffer_.pop_front();
    wbBlockedGen_ = 0;
    commitPending_ = true;  // a store may have stalled on a full buffer
}

// --------------------------------------------------------------------

void
SmtCore::addMissWaiter(std::uint64_t miss_id, ThreadId tid, InstSeq seq,
                       bool is_fetch)
{
    panic_if(missWaiters_.size() >= config_.lqSize + config_.numThreads,
             "more than lqSize + numThreads miss waiters");
    missWaiters_.insert(miss_id, MissWaiter{tid, is_fetch, seq});
}

void
SmtCore::onMissComplete(std::uint64_t miss_id, Cycle when)
{
    const MissWaiter *found = missWaiters_.find(miss_id);
    if (found == nullptr)
        return;  // e.g. a store fill nobody waits on
    const MissWaiter w = *found;
    missWaiters_.erase(miss_id);
    if (w.isFetch)
        threads_[w.tid].icacheBlocked = false;
    else
        markCompleted(w.tid, w.seq, when);
}

void
SmtCore::cycle(Cycle now)
{
    ++cyclesRun_;
    lastCycle_ = now;
    commitStage();
    completeStage(now);
    issueStage(now);
    dispatchStage(now);
    fetchStage(now);
    drainWriteBuffer(now);
}

Cycle
SmtCore::nextEventAt(Cycle now) const
{
    // Draining the write buffer touches the hierarchy every cycle, and
    // so does every ready entry: it issues, or (a load) probes or
    // replays a blocked cache access, which updates TLB state and the
    // blocked count.  No such cycle may be skipped.
    if (!writeBuffer_.empty() || !intReady_.empty() || !fpReady_.empty())
        return now + 1;

    // Dispatch: asleep until dispatchWakeAt_ (0 once width ran out),
    // and only a stepped cycle can wake it earlier.
    if (dispatchWakeAt_ <= now + 1)
        return now + 1;
    Cycle next = dispatchWakeAt_;
    if (donePending_ > 0)
        next = std::min(next, earliestCompletion());

    for (ThreadId tid = 0; tid < config_.numThreads; ++tid) {
        const ThreadState &t = threads_[tid];

        // Commit: the oldest in-flight instruction is done.
        if (t.robHead < t.robTail &&
            robSlot(tid, t.robHead).state == DynInst::State::Completed)
            return now + 1;

        // Fetch: mirror fetchStage's fetchable predicate.  Only the
        // redirect penalty is a pure timer; every other gate clears
        // through an event covered elsewhere.
        if (t.stream != nullptr && !t.icacheBlocked &&
            !t.awaitingBranch &&
            t.fetchQueue.size() < config_.fetchQueueCap) {
            if (t.fetchResumeAt <= now + 1)
                return now + 1;
            next = std::min(next, t.fetchResumeAt);
        }
    }
    return next;
}

void
SmtCore::skipCycles(std::uint64_t count)
{
    // Every skipped cycle sees the state the last stepped one left:
    // only the first can open a fetch-stall span (a gate raised
    // during the last stepped cycle), and none can close one, since a
    // fetchable thread makes nextEventAt() answer the next cycle.
    if (tracer_ && count > 0) {
        const Cycle first = lastCycle_ + 1;
        for (ThreadId tid = 0; tid < config_.numThreads; ++tid)
            traceFetchStall(tid, fetchable(threads_[tid], first), first);
    }
    lastCycle_ += count;
    cyclesRun_ += count;
    commitRotation_ += count;
    dispatchRotation_ += count;
    fetchRotation_ += count;
}

} // namespace smtdram
