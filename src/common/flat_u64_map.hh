/**
 * @file
 * Open-addressed hash map from a 64-bit key to a small value.
 *
 * The translation and miss-tracking tables on the per-access path
 * (TLB index, page tables, the core's miss waiters, the hierarchy's
 * line-to-miss-slot index) all map a 64-bit key to a few bytes.  A
 * node-based std::unordered_map allocates once per insert; this map
 * keeps keys and values inline in one power-of-two slot array with
 * linear probing, so a table that was reserve()d for its bound never
 * touches the heap.  The load factor stays at or below 1/2; an insert
 * beyond that doubles the array (only the page tables, whose size is
 * the touched address space, ever grow).  Erase shifts the following
 * run back instead of leaving tombstones, so lookups never degrade.
 *
 * The all-ones key marks an empty slot and cannot be stored.
 */

#ifndef SMTDRAM_COMMON_FLAT_U64_MAP_HH
#define SMTDRAM_COMMON_FLAT_U64_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace smtdram
{

template <typename V>
class FlatU64Map
{
  public:
    /** The reserved empty-slot key. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    FlatU64Map() { rehash(kMinSlots); }

    /** Make room for @p n keys without growing again. */
    void
    reserve(std::size_t n)
    {
        std::size_t slots = kMinSlots;
        while (slots < 2 * n)
            slots *= 2;
        if (slots > slots_.size())
            rehash(slots);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The value stored under @p key, or nullptr. */
    V *
    find(std::uint64_t key)
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatU64Map *>(this)->find(key);
    }

    /** Store @p value under @p key, which must not be present. */
    V &
    insert(std::uint64_t key, const V &value)
    {
        panic_if(key == kEmptyKey, "FlatU64Map: the empty key is reserved");
        if (2 * (size_ + 1) > slots_.size())
            rehash(2 * slots_.size());
        std::size_t i = home(key);
        for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
            panic_if(slots_[i].key == key,
                     "FlatU64Map: duplicate key %#llx",
                     (unsigned long long)key);
        }
        slots_[i].key = key;
        slots_[i].value = value;
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t hole = home(key);
        for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == kEmptyKey)
                return false;
        }
        // Backward shift: pull each later entry of the run into the
        // hole unless its home lies cyclically in (hole, j], where the
        // move would put it in front of its home.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != kEmptyKey; j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        --size_;
        return true;
    }

    /** Drop every entry, keeping the slot array. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

  private:
    static constexpr std::size_t kMinSlots = 16;

    struct Slot {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    /** Fibonacci hashing: the key's top bits after a multiply. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E37'79B9'7F4A'7C15ULL) >> shift_);
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        shift_ = 64 - floorLog2(slots);
        size_ = 0;
        for (const Slot &s : old) {
            if (s.key != kEmptyKey)
                insert(s.key, s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_COMMON_FLAT_U64_MAP_HH
