#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace smtdram
{

namespace
{

// The sink and verbosity are read on every warn()/inform() from any
// simulation thread; plain globals would be data races under a
// parallel sweep.  Relaxed atomics suffice: a message racing a
// configuration change may use either setting, never a torn value.
std::atomic<LogSink *> g_sink{nullptr};
std::atomic<LogVerbosity> g_verbosity{LogVerbosity::Normal};

// The panic hook is a std::function and needs a real lock.  The
// handle counter lets an owner clear only its own installation.
std::mutex g_panicHookMu;
std::function<void()> g_panicHook;
PanicHookHandle g_panicHookHandle = 0;
std::uint64_t g_nextPanicHookHandle = 1;

// Sink emission is serialized: warn_once() call sites dedupe with a
// per-site atomic, but two *different* warnings on two runner threads
// (--jobs N) would otherwise call into the shared sink concurrently —
// a data race unless every sink locks internally.  Centralizing the
// lock here keeps the sink contract single-threaded.  The no-sink
// fprintf path is serialized too so interleaved runs don't shred
// lines (ParallelLogging tests run this under TSan).
std::mutex g_sinkEmitMu;

void
emitWarn(const std::string &msg)
{
    if (logVerbosity() < LogVerbosity::WarnOnly)
        return;
    std::lock_guard<std::mutex> lock(g_sinkEmitMu);
    if (LogSink *sink = g_sink.load(std::memory_order_relaxed))
        sink->warnMessage(msg);
    else
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace

LogSink *
setLogSink(LogSink *sink)
{
    return g_sink.exchange(sink, std::memory_order_relaxed);
}

LogVerbosity
setLogVerbosity(LogVerbosity v)
{
    return g_verbosity.exchange(v, std::memory_order_relaxed);
}

LogVerbosity
logVerbosity()
{
    return g_verbosity.load(std::memory_order_relaxed);
}

PanicHookHandle
setPanicHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(g_panicHookMu);
    const bool empty = !hook;
    g_panicHook = std::move(hook);
    g_panicHookHandle = empty ? 0 : g_nextPanicHookHandle++;
    return g_panicHookHandle;
}

void
clearPanicHook(PanicHookHandle handle)
{
    if (handle == 0)
        return;
    std::lock_guard<std::mutex> lock(g_panicHookMu);
    if (g_panicHookHandle == handle) {
        g_panicHook = nullptr;
        g_panicHookHandle = 0;
    }
}

std::string
vformat(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    // Post-mortem hook (trace flush, stats snapshot) after the message
    // so the panic reason is on stderr even if the hook dies too.
    static std::atomic<bool> in_panic{false};
    if (!in_panic.exchange(true)) {
        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lock(g_panicHookMu);
            hook = g_panicHook;
        }
        if (hook)
            hook();
    }
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // _Exit, not exit: a fatal on one sweep worker must not run static
    // destructors under its siblings.  Flush first, or buffered output
    // would be lost.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (logVerbosity() < LogVerbosity::WarnOnly)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    emitWarn(msg);
}

void
warnOnceImpl(std::atomic<bool> &fired, const char *fmt, ...)
{
    if (fired.exchange(true, std::memory_order_relaxed))
        return;
    if (logVerbosity() < LogVerbosity::WarnOnly)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    emitWarn(msg + " (further occurrences suppressed)");
}

void
informImpl(const char *fmt, ...)
{
    if (logVerbosity() < LogVerbosity::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::lock_guard<std::mutex> lock(g_sinkEmitMu);
    if (LogSink *sink = g_sink.load(std::memory_order_relaxed))
        sink->informMessage(msg);
    else
        std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace smtdram
