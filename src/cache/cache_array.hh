/**
 * @file
 * Set-associative tag array with true-LRU replacement.
 *
 * Tags only: the simulator never stores data, because the synthetic
 * workloads carry no values — only addresses and timing matter.
 */

#ifndef SMTDRAM_CACHE_CACHE_ARRAY_HH
#define SMTDRAM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace smtdram
{

/** One level's tag store. */
class CacheArray
{
  public:
    /** Eviction result of insert(). */
    struct Victim {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = kAddrInvalid;
    };

    /** @p lines consecutive lines, the first at line address @p line. */
    struct LineRun {
        Addr line = 0;
        std::uint64_t lines = 0;
    };

    CacheArray(const CacheLevelConfig &config, std::string name);

    /** Side-effect-free lookup (no LRU update). */
    bool probe(Addr addr) const;

    /**
     * Lookup that updates LRU on hit and records hit/miss stats.
     * @param make_dirty mark the line dirty on hit (stores).
     * @return true on hit.
     */
    bool access(Addr addr, bool make_dirty);

    /**
     * The hit half of access(): on a hit, update LRU, mark the line
     * dirty when @p make_dirty, record the hit and return true; on a
     * miss change nothing (no miss is recorded) and return false.
     * One set scan, where probe() then access() takes two.
     */
    bool accessIfHit(Addr addr, bool make_dirty);

    /**
     * Install the line, evicting the set's LRU victim if needed.
     * The line must not already be present.
     */
    Victim insert(Addr addr, bool dirty);

    /**
     * Make the line present: insert() it when absent; when present,
     * only mark it dirty if @p dirty (no LRU update) and return no
     * victim.  One set scan finds the line or the victim insert()
     * would pick, so a present line can never be inserted twice.
     */
    Victim fill(Addr addr, bool dirty);

    /**
     * Leave the array exactly as fill(line, false) of every line of
     * @p runs, in order, would: the same tags, state bits, LRU stamps,
     * way positions and use clock.  The array must never have
     * installed or touched a line (it panics otherwise), and no line
     * may repeat.  Then every fill misses, the j-th fill into a set
     * lands in way j mod assoc and evicts the fill assoc before it,
     * so only each set's last assoc fills survive.  One pass counts
     * the fills per set and a second writes only the survivors, in
     * time proportional to lines plus sets.  Does nothing on an
     * infinite array, as fill() does.
     */
    void warm(const std::vector<LineRun> &runs);

    /** Mark an existing line dirty; returns false if absent. */
    bool setDirty(Addr addr);

    /** Drop the line if present; returns its prior state. */
    Victim invalidate(Addr addr);

    const CacheLevelConfig &config() const { return config_; }
    const std::string &name() const { return name_; }
    const RatioStat &demandStats() const { return demand_; }
    void resetStats() { demand_.reset(); }

    std::uint64_t numSets() const { return sets_; }

    bool operator==(const CacheArray &) const = default;

  private:
    /** 16 bytes: the tag and both state bits share one word. */
    struct Line {
        /** (tag << 2) | kDirty | kValid; 0 = invalid. */
        std::uint64_t tagState = 0;
        std::uint64_t lastUse = 0;

        bool operator==(const Line &) const = default;
    };
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

    /** One pass over a set: the matching line, else the victim. */
    struct SetScan {
        Line *hit = nullptr;
        /** First invalid way, else the least recently used one. */
        Line *victim = nullptr;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddrOf(std::uint64_t set, Addr tag) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    SetScan scanSet(Addr addr);
    /** Write @p addr into the scanned victim way. */
    Victim install(const SetScan &scan, Addr addr, bool dirty);

    CacheLevelConfig config_;
    std::string name_;
    std::uint64_t sets_;
    unsigned lineShift_;
    /** lineShift_ + log2(sets_): the tag is the address above it. */
    unsigned tagShift_;
    std::vector<Line> lines_;  // sets_ * assoc, row-major by set
    std::uint64_t useClock_ = 0;
    RatioStat demand_;
};

} // namespace smtdram

#endif // SMTDRAM_CACHE_CACHE_ARRAY_HH
