#include "cache/tlb.hh"

#include "common/logging.hh"

namespace smtdram
{

PageTables::PageTables(std::uint32_t page_bytes, std::uint32_t num_threads)
    : pageShift_(floorLog2(page_bytes)), tables_(num_threads),
      last_(num_threads)
{
    fatal_if(!isPowerOfTwo(page_bytes), "page size must be a power of 2");
}

Addr
PageTables::translate(ThreadId tid, Addr vaddr)
{
    panic_if(tid >= tables_.size(), "thread %u out of range", tid);
    const Addr vpage = vaddr >> pageShift_;
    const Addr offset = vaddr & ((Addr{1} << pageShift_) - 1);
    LastXlate &last = last_[tid];
    if (last.vpage == vpage)
        return (last.frame << pageShift_) | offset;
    FlatU64Map<Addr> &pt = tables_[tid];
    Addr frame;
    if (const Addr *mapped = pt.find(vpage)) {
        frame = *mapped;
    } else {
        ++nextFrame_;
        frame = frameSource_ ? frameSource_(tid) : nextFrame_ - 1;
        pt.insert(vpage, frame);
    }
    last.vpage = vpage;
    last.frame = frame;
    return (frame << pageShift_) | offset;
}

Tlb::Tlb(std::uint32_t entries, Cycle miss_penalty)
    : entries_(entries), missPenalty_(miss_penalty), slots_(entries)
{
    fatal_if(entries_ == 0, "TLB needs at least one entry");
    index_.reserve(entries_);
}

void
Tlb::unlink(std::uint32_t s)
{
    Entry &e = slots_[s];
    (e.prev == kNoSlot ? mru_ : slots_[e.prev].next) = e.next;
    (e.next == kNoSlot ? lru_ : slots_[e.next].prev) = e.prev;
}

void
Tlb::pushFront(std::uint32_t s)
{
    Entry &e = slots_[s];
    e.prev = kNoSlot;
    e.next = mru_;
    (mru_ == kNoSlot ? lru_ : slots_[mru_].prev) = s;
    mru_ = s;
}

Cycle
Tlb::lookup(ThreadId tid, Addr vpage)
{
    const std::uint64_t k = key(tid, vpage);
    // MRU short-circuit: a repeat of the most recent lookup is
    // already at the LRU front, so the move would be a no-op and
    // the index probe pure overhead.  State evolution is identical.
    if (mru_ != kNoSlot && slots_[mru_].key == k) {
        stats_.hit();
        return 0;
    }
    if (const std::uint32_t *s = index_.find(k)) {
        unlink(*s);
        pushFront(*s);
        stats_.hit();
        return 0;
    }
    stats_.miss();
    // A free slot while the TLB fills, then the LRU entry's: the
    // entry a true-LRU insert-then-evict would drop.
    std::uint32_t s = used_;
    if (used_ < entries_) {
        ++used_;
    } else {
        s = lru_;
        index_.erase(slots_[s].key);
        unlink(s);
    }
    slots_[s].key = k;
    pushFront(s);
    index_.insert(k, s);
    return missPenalty_;
}

} // namespace smtdram
