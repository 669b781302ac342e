#include "cache/cache_array.hh"

#include "common/logging.hh"

namespace smtdram
{

CacheArray::CacheArray(const CacheLevelConfig &config, std::string name)
    : config_(config),
      name_(std::move(name)),
      sets_(config.numSets()),
      lineShift_(floorLog2(config.lineBytes)),
      tagShift_(lineShift_ + floorLog2(sets_))
{
    fatal_if(!isPowerOfTwo(config_.lineBytes),
             "%s: line size must be a power of 2", name_.c_str());
    fatal_if(sets_ == 0 || !isPowerOfTwo(sets_),
             "%s: set count %llu must be a non-zero power of 2",
             name_.c_str(), (unsigned long long)sets_);
    fatal_if(tagShift_ < 2,
             "%s: lines x sets must span at least 4 bytes to leave "
             "room for the state bits", name_.c_str());
    lines_.resize(sets_ * config_.assoc);
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (sets_ - 1);
}

Addr
CacheArray::tagOf(Addr addr) const
{
    return addr >> tagShift_;
}

Addr
CacheArray::lineAddrOf(std::uint64_t set, Addr tag) const
{
    return ((tag << (tagShift_ - lineShift_)) | set) << lineShift_;
}

CacheArray::Line *
CacheArray::findLine(Addr addr)
{
    const std::uint64_t want = (tagOf(addr) << 2) | kValid;
    Line *base = &lines_[setIndex(addr) * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        if ((base[w].tagState & ~kDirty) == want)
            return &base[w];
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::findLine(Addr addr) const
{
    return const_cast<CacheArray *>(this)->findLine(addr);
}

CacheArray::SetScan
CacheArray::scanSet(Addr addr)
{
    const std::uint64_t want = (tagOf(addr) << 2) | kValid;
    Line *base = &lines_[setIndex(addr) * config_.assoc];
    SetScan scan;
    bool free_way = false;
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
        Line &l = base[w];
        if ((l.tagState & ~kDirty) == want) {
            scan.hit = &l;
            return scan;
        }
        if (free_way)
            continue;
        if (!(l.tagState & kValid)) {
            scan.victim = &l;
            free_way = true;
        } else if (scan.victim == nullptr ||
                   l.lastUse < scan.victim->lastUse) {
            scan.victim = &l;
        }
    }
    return scan;
}

bool
CacheArray::probe(Addr addr) const
{
    if (config_.infinite)
        return true;
    return findLine(addr) != nullptr;
}

bool
CacheArray::accessIfHit(Addr addr, bool make_dirty)
{
    if (config_.infinite) {
        demand_.hit();
        return true;
    }
    Line *line = findLine(addr);
    if (line == nullptr)
        return false;
    line->lastUse = ++useClock_;
    if (make_dirty)
        line->tagState |= kDirty;
    demand_.hit();
    return true;
}

bool
CacheArray::access(Addr addr, bool make_dirty)
{
    if (accessIfHit(addr, make_dirty))
        return true;
    demand_.miss();
    return false;
}

CacheArray::Victim
CacheArray::install(const SetScan &scan, Addr addr, bool dirty)
{
    Line *slot = scan.victim;
    Victim victim;
    if (slot->tagState & kValid) {
        victim.valid = true;
        victim.dirty = (slot->tagState & kDirty) != 0;
        victim.lineAddr = lineAddrOf(setIndex(addr), slot->tagState >> 2);
    }
    slot->tagState = (tagOf(addr) << 2) | kValid | (dirty ? kDirty : 0);
    slot->lastUse = ++useClock_;
    return victim;
}

CacheArray::Victim
CacheArray::insert(Addr addr, bool dirty)
{
    if (config_.infinite)
        return Victim{};
    const SetScan scan = scanSet(addr);
    panic_if(scan.hit != nullptr,
             "%s: inserting already-present line %#llx", name_.c_str(),
             (unsigned long long)addr);
    return install(scan, addr, dirty);
}

CacheArray::Victim
CacheArray::fill(Addr addr, bool dirty)
{
    if (config_.infinite)
        return Victim{};
    const SetScan scan = scanSet(addr);
    if (scan.hit != nullptr) {
        if (dirty)
            scan.hit->tagState |= kDirty;
        return Victim{};
    }
    return install(scan, addr, dirty);
}

bool
CacheArray::setDirty(Addr addr)
{
    if (config_.infinite)
        return true;
    Line *line = findLine(addr);
    if (line == nullptr)
        return false;
    line->tagState |= kDirty;
    return true;
}

CacheArray::Victim
CacheArray::invalidate(Addr addr)
{
    Victim v;
    if (config_.infinite)
        return v;
    Line *line = findLine(addr);
    if (line != nullptr) {
        v.valid = true;
        v.dirty = (line->tagState & kDirty) != 0;
        v.lineAddr = addr & ~static_cast<Addr>(config_.lineBytes - 1);
        line->tagState = 0;
    }
    return v;
}

} // namespace smtdram
