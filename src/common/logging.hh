/**
 * @file
 * Error-reporting helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated; this is a simulator
 *            bug.  Aborts (may dump core).
 * fatal()  — the user asked for something impossible (bad config,
 *            bad CLI flag).  Flushes every stream and exits with
 *            status 1, running no static destructors.
 * warn()   — something is approximated; simulation continues.
 * inform() — plain status output.
 */

#ifndef SMTDRAM_COMMON_LOGGING_HH
#define SMTDRAM_COMMON_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <functional>
#include <string>

namespace smtdram
{

/**
 * Destination for warn()/inform() messages.  The default sink writes
 * "warn: ..." to stderr and "info: ..." to stdout exactly as the
 * free functions always have; tests install a capturing sink to
 * assert on emitted warnings instead of scraping stderr, and benches
 * could redirect chatter into a log file.  panic()/fatal() always
 * write stderr directly — death tests and operators must see them
 * regardless of sink games.
 */
class LogSink
{
  public:
    virtual ~LogSink() = default;
    virtual void warnMessage(const std::string &msg) = 0;
    virtual void informMessage(const std::string &msg) = 0;
};

/**
 * Install @p sink as the warn()/inform() destination (not owned);
 * nullptr restores the stderr/stdout default.  Returns the previous
 * sink so scoped users can restore it.
 */
LogSink *setLogSink(LogSink *sink);

/** How much warn()/inform() traffic gets through. */
enum class LogVerbosity : std::uint8_t {
    Quiet = 0,     ///< drop warn() and inform()
    WarnOnly = 1,  ///< drop inform() only
    Normal = 2,    ///< everything (default)
};

/** Set the process-wide verbosity; returns the previous value. */
LogVerbosity setLogVerbosity(LogVerbosity v);
LogVerbosity logVerbosity();

/**
 * Token identifying one installed panic hook, so an owner can clear
 * its own hook without clobbering a newer one (parallel sweeps keep
 * several simulations alive at once; the slot belongs to whoever
 * installed last).  0 never names a real hook.
 */
using PanicHookHandle = std::uint64_t;

/**
 * Hook run by panic() after printing the message and before
 * aborting — the seam that turns a wedge death into a post-mortem:
 * the simulator installs a hook that flushes the trace buffer and
 * dumps a final stats snapshot.  Single slot; an empty function
 * clears it.  Re-entrant panics skip the hook so a hook that itself
 * panics cannot recurse.  Thread-safe.
 *
 * @return a handle for clearPanicHook(), or 0 when @p hook is empty.
 */
PanicHookHandle setPanicHook(std::function<void()> hook);

/**
 * Clear the panic hook, but only if @p handle still names the
 * installed one — a later setPanicHook() wins over an older owner's
 * teardown.  clearPanicHook(0) is a no-op.
 */
void clearPanicHook(PanicHookHandle handle);

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
/** warn() that fires at most once per call site (see warn_once). */
void warnOnceImpl(std::atomic<bool> &fired, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Formats like vsnprintf into a std::string. */
std::string vformat(const char *fmt, va_list args);

} // namespace smtdram

#define panic(...) \
    ::smtdram::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) \
    ::smtdram::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::smtdram::warnImpl(__VA_ARGS__)
#define inform(...) ::smtdram::informImpl(__VA_ARGS__)

/**
 * warn() at most once per call site for the process lifetime — for
 * conditions hit every cycle of a tight loop (fault-injection
 * retries, deferred refreshes) that would otherwise flood stderr.
 * The latch is atomic so call sites shared by concurrently running
 * simulations stay race-free (parallel sweeps may warn twice in a
 * photo finish, never a torn read).
 */
#define warn_once(...)                                        \
    do {                                                      \
        static std::atomic<bool> _smtdram_warned_once{false}; \
        ::smtdram::warnOnceImpl(_smtdram_warned_once,         \
                                __VA_ARGS__);                 \
    } while (0)

/** panic() unless @p cond holds — for internal invariants. */
#define panic_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            panic(__VA_ARGS__);    \
    } while (0)

/** fatal() unless the user-supplied condition holds. */
#define fatal_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            fatal(__VA_ARGS__);    \
    } while (0)

#endif // SMTDRAM_COMMON_LOGGING_HH
