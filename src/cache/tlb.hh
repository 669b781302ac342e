/**
 * @file
 * Virtual-to-physical translation: per-thread page tables with
 * sequential ("bin hopping" [14]) frame allocation, and thread-tagged
 * TLBs (Table 1: 128-entry ITLB + 128-entry DTLB).
 *
 * Frames are handed out in global touch order, so pages of different
 * threads interleave in physical memory the way a real OS allocating
 * on first touch would place them — which is what determines how SMT
 * threads collide in DRAM banks.
 */

#ifndef SMTDRAM_CACHE_TLB_HH
#define SMTDRAM_CACHE_TLB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache_config.hh"
#include "common/flat_u64_map.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** Per-thread page tables; instruction and data share one space. */
class PageTables
{
  public:
    PageTables(std::uint32_t page_bytes, std::uint32_t num_threads);

    /** Translate, allocating a frame on first touch. */
    Addr translate(ThreadId tid, Addr vaddr);

    /** Make room for @p pages more mappings of @p tid, so mapping
     *  them never regrows the thread's table.  Changes no mapping. */
    void
    reserve(ThreadId tid, std::uint64_t pages)
    {
        tables_[tid].reserve(tables_[tid].size() + pages);
    }

    Addr vpageOf(Addr vaddr) const { return vaddr >> pageShift_; }
    std::uint64_t framesAllocated() const { return nextFrame_; }
    std::uint32_t pageShift() const { return pageShift_; }

    /**
     * Replace the default sequential frame counter with an external
     * allocator (the NUMA topology's home-aware allocator, which
     * needs the touching thread to resolve first-touch homes).
     * Called once at machine construction, before any translation.
     * The source must hand out globally unique frame numbers.
     */
    void setFrameSource(std::function<Addr(ThreadId)> source)
    {
        frameSource_ = std::move(source);
    }

  private:
    /** Last translation per thread.  Mappings are allocate-on-first-
     *  touch and never change or disappear, so this one-entry cache
     *  needs no invalidation — it only short-circuits the hash
     *  lookup for the overwhelmingly common same-page repeat. */
    struct LastXlate {
        Addr vpage = kAddrInvalid;
        Addr frame = 0;
    };

    std::uint32_t pageShift_;
    /** Per thread: vpage -> frame. */
    std::vector<FlatU64Map<Addr>> tables_;
    std::vector<LastXlate> last_;
    std::uint64_t nextFrame_ = 0;
    std::function<Addr(ThreadId)> frameSource_;
};

/**
 * One TLB (I or D): thread-tagged, fully associative, true LRU.
 *
 * The entries live in a fixed slot array threaded by an intrusive
 * MRU-to-LRU list, found through an open-addressed key -> slot index
 * sized for the capacity, so a lookup never allocates.
 */
class Tlb
{
  public:
    Tlb(std::uint32_t entries, Cycle miss_penalty);

    /**
     * Record a lookup of (tid, vpage).
     * @return extra cycles to charge (0 on hit, missPenalty on miss).
     */
    Cycle lookup(ThreadId tid, Addr vpage);

    const RatioStat &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    static std::uint64_t
    key(ThreadId tid, Addr vpage)
    {
        return (static_cast<std::uint64_t>(tid) << 48) | vpage;
    }

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** One cached translation and its LRU-list links. */
    struct Entry {
        std::uint64_t key = 0;
        std::uint32_t prev = kNoSlot;  ///< toward the MRU end
        std::uint32_t next = kNoSlot;  ///< toward the LRU end
    };

    /** Take slot @p s out of the LRU list. */
    void unlink(std::uint32_t s);
    /** Put slot @p s at the MRU end of the list. */
    void pushFront(std::uint32_t s);

    std::uint32_t entries_;
    Cycle missPenalty_;
    std::vector<Entry> slots_;
    std::uint32_t used_ = 0;
    std::uint32_t mru_ = kNoSlot;
    std::uint32_t lru_ = kNoSlot;
    /** key -> slot of every cached translation. */
    FlatU64Map<std::uint32_t> index_;
    RatioStat stats_;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_TLB_HH
