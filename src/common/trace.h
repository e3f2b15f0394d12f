/**
 * @file
 * Low-overhead, thread-safe trace recorder emitting Chrome trace-event
 * JSON (loadable in chrome://tracing and Perfetto). The paper's whole
 * point is characterizing *where* cycles go inside the implicit-im2col
 * pipeline; this recorder makes the same breakdown visible for our own
 * stack: scoped wall-clock duration events (TRACE_SCOPE), instant
 * events, counter tracks, and — the simulator-specific part — spans on
 * a second, virtual "simulated cycles" clock so TpuSim fill/compute
 * phases and GpuSim pipeline steps can be inspected on their own
 * timeline next to the host's.
 *
 * Two clock domains, kept apart by Chrome-trace process id:
 *   pid 1 "wall clock"        — ts in real microseconds since start
 *   pid 2 "simulated cycles"  — ts in simulated cycles (1 cycle renders
 *                               as 1 us; timelines start at 0 per layer)
 *
 * Cost model: tracing is OFF by default. Every recording entry point
 * first checks enabled() — a single relaxed atomic load — so the
 * disabled path costs one branch and allocates nothing. Events are
 * appended to per-thread buffers (one uncontended mutex each, taken
 * only while enabled) and flushed to the output file once, at stop()
 * or process exit.
 *
 * Activation: trace::start(path), which the `trace=FILE` argument of
 * every bench calls.
 */

#ifndef CFCONV_COMMON_TRACE_H
#define CFCONV_COMMON_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cfconv::trace {

/**
 * One named argument attached to an event ("args" in the trace-event
 * format). Numeric by default — the hot recording paths stay
 * allocation-light — with an optional string form for the
 * self-describing annotations the offline analyzer groups by
 * (algorithm / variant names). Events carrying only numeric args are
 * emitted byte-identically to the pre-string-arg recorder.
 */
struct Arg
{
    Arg(std::string k, double v) : key(std::move(k)), value(v) {}
    Arg(std::string k, std::string v)
        : key(std::move(k)), text(std::move(v)), isText(true)
    {}
    Arg(std::string k, const char *v)
        : key(std::move(k)), text(v), isText(true)
    {}

    std::string key;
    double value = 0.0;
    std::string text; ///< string payload when isText
    bool isText = false;
};

using Args = std::vector<Arg>;

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** Whether the recorder is currently armed. One relaxed atomic load —
 *  cheap enough to guard every call site. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Arm the recorder and direct the flush to @p path. Restarting with a
 * new path drops any events recorded so far (each start() begins a
 * fresh trace). Registers an atexit flush so benches that simply
 * return from main() still write their file.
 */
void start(const std::string &path);

/** Disarm, gather all per-thread buffers, and write the JSON document
 *  to the start() path. Safe to call multiple times; only the first
 *  call after start() writes. @return false on I/O failure. */
bool stop();

/** The path the next stop() will write to (empty when never armed). */
std::string outputPath();

/** Microseconds on the wall clock since process start. */
double nowUs();

/** Name this thread's row in the trace (emitted as thread_name
 *  metadata). Cheap and always stored, so names survive a later
 *  start(). */
void setThreadName(const std::string &name);

/** Record a wall-clock instant event (a vertical tick). */
void instant(const char *category, std::string name, Args args = {});

/** Record a sample on the wall-clock counter track @p name. */
void counter(const char *category, const char *name, double value);

/** Record a complete wall-clock span [ts_us, ts_us + dur_us]. Scope is
 *  the usual way to produce these; this is for hand-built spans. */
void completeSpan(const char *category, std::string name, double ts_us,
                  double dur_us, Args args = {});

/**
 * RAII wall-clock duration span. Records the start time at
 * construction (when armed) and emits one complete event at
 * destruction. Use the TRACE_SCOPE* macros rather than naming the
 * object. Args attached via arg() ride along in the emitted event.
 */
class Scope
{
  public:
    /** Statically-named span; zero allocation when disabled. */
    Scope(const char *category, const char *name)
        : category_(category), staticName_(name)
    {
        if (enabled())
            startUs_ = nowUs();
    }

    /** Dynamically-named span. Callers should build @p name only when
     *  enabled() (see TRACE_SCOPE_DYN). */
    Scope(const char *category, std::string name)
        : category_(category), dynName_(std::move(name))
    {
        if (enabled())
            startUs_ = nowUs();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope();

    /** Attach a numeric argument to the event this scope will emit. */
    void
    arg(const char *key, double value)
    {
        if (startUs_ >= 0.0)
            args_.push_back({key, value});
    }

    /** Attach a string argument (e.g. an algorithm name) to the event
     *  this scope will emit. */
    void
    arg(const char *key, std::string value)
    {
        if (startUs_ >= 0.0)
            args_.push_back({key, std::move(value)});
    }

    /** Whether this scope captured a start time (recorder was armed). */
    bool active() const { return startUs_ >= 0.0; }

  private:
    const char *category_;
    const char *staticName_ = nullptr;
    std::string dynName_;
    double startUs_ = -1.0;
    Args args_;
};

/**
 * A row on the simulated-cycles clock. Allocated per simulated
 * timeline (one TPU layer, one GPU kernel); an inactive track (id 0,
 * returned when the recorder is disarmed) makes simSpan a no-op.
 */
struct SimTrack
{
    int tid = 0;
    bool active() const { return tid != 0; }
};

/** Allocate a simulated-cycles row named @p label. Returns an inactive
 *  track when the recorder is disarmed. */
SimTrack simTrack(std::string label);

/** Record the span [start_cycles, start_cycles + dur_cycles] on
 *  @p track. Zero-duration spans are dropped. */
void simSpan(const SimTrack &track, const char *name,
             std::uint64_t start_cycles, std::uint64_t dur_cycles,
             Args args = {});

/** Record an instant at @p at_cycles on @p track. Args (e.g. an
 *  outage's downtime) ride along for the offline analyzer. */
void simInstant(const SimTrack &track, std::string name,
                std::uint64_t at_cycles, Args args = {});

/** Number of events currently buffered (all threads). Test hook. */
std::size_t bufferedEventCountForTest();

/** Disarm, drop all buffered events and sim tracks, and clear the
 *  output path without writing anything. Test hook. */
void resetForTest();

} // namespace cfconv::trace

#define CFCONV_SCOPE_CAT2(a, b) a##b
#define CFCONV_SCOPE_CAT(a, b) CFCONV_SCOPE_CAT2(a, b)

/** Scoped wall-clock span with a static name. */
#define TRACE_SCOPE(category, name)                                        \
    ::cfconv::trace::Scope CFCONV_SCOPE_CAT(cfconv_trace_scope_,           \
                                            __COUNTER__)(category, name)

/** Scoped wall-clock span whose name expression is evaluated only when
 *  the recorder is armed (so formatting costs nothing when disabled). */
#define TRACE_SCOPE_DYN(category, name_expr)                               \
    ::cfconv::trace::Scope CFCONV_SCOPE_CAT(cfconv_trace_scope_,           \
                                            __COUNTER__)(                  \
        category, ::cfconv::trace::enabled()                               \
                      ? std::string(name_expr)                             \
                      : std::string())

/** Wall-clock instant event with a static name. */
#define TRACE_INSTANT(category, name)                                      \
    do {                                                                   \
        if (::cfconv::trace::enabled())                                    \
            ::cfconv::trace::instant(category, name);                      \
    } while (0)

/** Wall-clock counter sample. */
#define TRACE_COUNTER(category, name, value)                               \
    do {                                                                   \
        if (::cfconv::trace::enabled())                                    \
            ::cfconv::trace::counter(category, name,                       \
                                     static_cast<double>(value));          \
    } while (0)

#endif // CFCONV_COMMON_TRACE_H
