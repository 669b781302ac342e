#include "dram/scheduler.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace smtdram
{

namespace
{

/**
 * Lexicographic priority key: smaller compares better.  Every policy
 * is expressed as a (hitClass, readClass, threadKey, arrival, id)
 * tuple; the id keeps ordering total and deterministic.
 */
struct Key {
    int hitClass;       ///< 0 = row hit, 1 = idle bank, 2 = conflict
    int readClass;      ///< 0 = read (or maintenance), 1 = write
    std::int64_t threadKey;
    Cycle arrival;
    std::uint64_t id;

    bool
    operator<(const Key &o) const
    {
        if (hitClass != o.hitClass)
            return hitClass < o.hitClass;
        if (readClass != o.readClass)
            return readClass < o.readClass;
        if (threadKey != o.threadKey)
            return threadKey < o.threadKey;
        if (arrival != o.arrival)
            return arrival < o.arrival;
        return id < o.id;
    }
};

/** Queue depth beyond which age-based serves the oldest request
 *  first (paper: "more than eight outstanding requests"). */
constexpr size_t kAgePressure = 8;

/** Thread key of requests no thread owns (writebacks, maintenance):
 *  they rank after every thread-owned request within their class. */
constexpr std::int64_t kNoThreadKey = 1LL << 40;

int
hitClassOf(const SchedCandidate &c)
{
    if (c.rowHit)
        return 0;
    return c.bankIdle ? 1 : 2;
}

int
readClassOf(const SchedCandidate &c)
{
    return c.req->kind == RequestKind::Write ? 1 : 0;
}

/**
 * The one min-loop: build a key per candidate, return the smallest.
 * Not inlined, so each policy's loop compiles as its own function
 * with its key inlined; folding all seven loops into pickCandidate's
 * switch slowed FCFS and Hit-first picks by a third or more
 * (BM_SchedulerPick).
 */
template <typename KeyFn>
[[gnu::noinline]] size_t
minByKey(const std::vector<SchedCandidate> &candidates, KeyFn key_fn)
{
    size_t best = 0;
    Key best_key = key_fn(candidates[0]);
    for (size_t i = 1; i < candidates.size(); ++i) {
        Key k = key_fn(candidates[i]);
        if (k < best_key) {
            best_key = k;
            best = i;
        }
    }
    return best;
}

/**
 * The thread-aware shape: hit-first and read-first lead (Section 3.2
 * explains why bandwidth trumps single-access latency under SMT), then
 * @p thread_key of the owning thread's snapshot breaks ties.
 */
template <typename ThreadKeyFn>
size_t
minThreadAware(const std::vector<SchedCandidate> &candidates,
               ThreadKeyFn thread_key)
{
    return minByKey(candidates, [thread_key](const SchedCandidate &c) {
        const std::int64_t tkey = c.req->thread == kThreadNone
                                      ? kNoThreadKey
                                      : thread_key(c.req->snap);
        return Key{hitClassOf(c), readClassOf(c), tkey, c.req->arrival,
                   c.req->id};
    });
}

} // namespace

const std::vector<SchedulerKind> &
allSchedulerKinds()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Fcfs,         SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,     SchedulerKind::RequestBased,
        SchedulerKind::RobBased,     SchedulerKind::IqBased,
    };
    return kinds;
}

const std::vector<SchedulerKind> &
allSchedulerKindsExtended()
{
    static const std::vector<SchedulerKind> kinds = {
        SchedulerKind::Fcfs,          SchedulerKind::HitFirst,
        SchedulerKind::AgeBased,      SchedulerKind::RequestBased,
        SchedulerKind::RobBased,      SchedulerKind::IqBased,
        SchedulerKind::CriticalityBased,
    };
    return kinds;
}

std::string
schedulerName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Fcfs: return "FCFS";
      case SchedulerKind::HitFirst: return "Hit-first";
      case SchedulerKind::AgeBased: return "Age-based";
      case SchedulerKind::RequestBased: return "Request-based";
      case SchedulerKind::RobBased: return "ROB-based";
      case SchedulerKind::IqBased: return "IQ-based";
      case SchedulerKind::CriticalityBased: return "Criticality";
    }
    panic("unknown SchedulerKind %d", static_cast<int>(kind));
}

SchedulerKind
schedulerFromName(const std::string &name)
{
    std::string lower;
    for (char ch : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(ch))));
    std::erase(lower, '-');
    std::erase(lower, '_');
    if (lower == "fcfs")
        return SchedulerKind::Fcfs;
    if (lower == "hitfirst")
        return SchedulerKind::HitFirst;
    if (lower == "agebased" || lower == "age")
        return SchedulerKind::AgeBased;
    if (lower == "requestbased" || lower == "request")
        return SchedulerKind::RequestBased;
    if (lower == "robbased" || lower == "rob")
        return SchedulerKind::RobBased;
    if (lower == "iqbased" || lower == "iq")
        return SchedulerKind::IqBased;
    if (lower == "criticality" || lower == "criticalitybased" ||
        lower == "critical") {
        return SchedulerKind::CriticalityBased;
    }
    fatal("unknown scheduler '%s'", name.c_str());
}

size_t
pickCandidate(SchedulerKind kind,
              const std::vector<SchedCandidate> &candidates, size_t queued)
{
    panic_if(candidates.empty(), "scheduler invoked with no candidates");
    switch (kind) {
      case SchedulerKind::Fcfs:
        // Reads bypass writes (the paper's FCFS reference point);
        // otherwise strict arrival order.
        return minByKey(candidates, [](const SchedCandidate &c) {
            return Key{0, readClassOf(c), 0, c.req->arrival, c.req->id};
        });
      case SchedulerKind::AgeBased:
        if (queued > kAgePressure) {
            return minByKey(candidates, [](const SchedCandidate &c) {
                return Key{0, 0, 0, c.req->arrival, c.req->id};
            });
        }
        [[fallthrough]];
      case SchedulerKind::HitFirst:
        return minByKey(candidates, [](const SchedCandidate &c) {
            return Key{hitClassOf(c), readClassOf(c), 0, c.req->arrival,
                       c.req->id};
        });
      case SchedulerKind::RequestBased:
        // Fewest outstanding requests first.
        return minThreadAware(candidates, [](const ThreadSnapshot &s) {
            return static_cast<std::int64_t>(s.outstandingRequests);
        });
      case SchedulerKind::RobBased:
        // Most ROB entries held first.
        return minThreadAware(candidates, [](const ThreadSnapshot &s) {
            return -static_cast<std::int64_t>(s.robOccupancy);
        });
      case SchedulerKind::IqBased:
        // Most integer issue-queue entries held first.
        return minThreadAware(candidates, [](const ThreadSnapshot &s) {
            return -static_cast<std::int64_t>(s.iqOccupancy);
        });
      case SchedulerKind::CriticalityBased:
        // Critical requests lead within their hit/read class.
        return minByKey(candidates, [](const SchedCandidate &c) {
            return Key{hitClassOf(c), readClassOf(c),
                       c.req->critical ? 0 : 1, c.req->arrival,
                       c.req->id};
        });
    }
    panic("unknown SchedulerKind %d", static_cast<int>(kind));
}

} // namespace smtdram
