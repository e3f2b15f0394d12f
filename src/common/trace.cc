#include "common/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/report.h"

namespace cfconv::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/** Chrome-trace process ids separating the two clock domains. */
constexpr int kWallPid = 1;
constexpr int kSimPid = 2;

/** One buffered trace event (any phase type). */
struct Event
{
    std::string name;
    const char *category = "";
    char phase = 'X'; ///< X complete, i instant, C counter
    int pid = kWallPid;
    int tid = 0;
    double ts = 0.0;  ///< us (wall) or cycles (sim)
    double dur = 0.0; ///< X events only
    Args args;
};

/**
 * Per-thread event buffer. Owned by the recorder and never freed while
 * the process lives, so the thread_local pointer into it stays valid
 * even across thread-pool restarts. The mutex is uncontended in steady
 * state (only the owning thread appends; the flusher takes it once).
 */
struct ThreadBuffer
{
    std::mutex mu;
    std::vector<Event> events;
    int tid = 0;
    std::string name;
};

class Recorder
{
  public:
    static Recorder &
    instance()
    {
        // Never destroyed: a pool worker that starts while the process
        // exits still registers its thread buffer here.
        static Recorder *recorder = new Recorder();
        return *recorder;
    }

    ThreadBuffer &
    threadBuffer()
    {
        thread_local ThreadBuffer *tls = nullptr;
        if (!tls)
            tls = registerThread();
        return *tls;
    }

    double
    nowUs() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::micro>(now - epoch_)
            .count();
    }

    void
    record(Event &&e)
    {
        ThreadBuffer &buf = threadBuffer();
        std::lock_guard<std::mutex> lock(buf.mu);
        buf.events.push_back(std::move(e));
    }

    void
    start(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mu_);
        dropEventsLocked();
        path_ = path;
        detail::g_enabled.store(true, std::memory_order_release);
        if (!atexitRegistered_) {
            atexitRegistered_ = true;
            std::atexit([] { trace::stop(); });
        }
    }

    bool
    stop()
    {
        std::lock_guard<std::mutex> lock(mu_);
        detail::g_enabled.store(false, std::memory_order_release);
        if (path_.empty())
            return true;
        const std::string doc = renderLocked();
        const std::string path = path_;
        path_.clear();
        dropEventsLocked();
        return writeFile(path, doc);
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu_);
        detail::g_enabled.store(false, std::memory_order_release);
        path_.clear();
        dropEventsLocked();
    }

    std::string
    path()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return path_;
    }

    void
    setThreadName(const std::string &name)
    {
        ThreadBuffer &buf = threadBuffer();
        std::lock_guard<std::mutex> lock(buf.mu);
        buf.name = name;
    }

    int
    newSimTrack(std::string label)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const int tid = nextSimTid_++;
        simTracks_.emplace_back(tid, std::move(label));
        return tid;
    }

    std::size_t
    bufferedEvents()
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::size_t n = 0;
        for (const auto &buf : buffers_) {
            std::lock_guard<std::mutex> blk(buf->mu);
            n += buf->events.size();
        }
        return n;
    }

  private:
    Recorder() : epoch_(std::chrono::steady_clock::now()) {}

    ThreadBuffer *
    registerThread()
    {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        ThreadBuffer *buf = buffers_.back().get();
        buf->tid = nextTid_++;
        return buf;
    }

    void
    dropEventsLocked()
    {
        for (const auto &buf : buffers_) {
            std::lock_guard<std::mutex> blk(buf->mu);
            buf->events.clear();
        }
        simTracks_.clear();
    }

    static void
    emitArgs(std::string &out, const Args &args)
    {
        out += "{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                out += ", ";
            out += "\"" + jsonEscape(args[i].key) + "\": ";
            if (args[i].isText) {
                out += "\"" + jsonEscape(args[i].text) + "\"";
            } else {
                char num[40];
                std::snprintf(num, sizeof(num), "%.17g",
                              args[i].value);
                out += num;
            }
        }
        out += "}";
    }

    void
    emitEvent(std::string &out, const Event &e, bool &first) const
    {
        if (!first)
            out += ",\n";
        first = false;
        char buf[128];
        out += "  {\"name\": \"" + jsonEscape(e.name) + "\", \"cat\": \"";
        out += e.category;
        out += "\", \"ph\": \"";
        out += e.phase;
        std::snprintf(buf, sizeof(buf),
                      "\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f",
                      e.pid, e.tid, e.ts);
        out += buf;
        if (e.phase == 'X') {
            std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", e.dur);
            out += buf;
        }
        if (e.phase == 'i')
            out += ", \"s\": \"t\"";
        if (!e.args.empty() || e.phase == 'C') {
            out += ", \"args\": ";
            emitArgs(out, e.args);
        }
        out += "}";
    }

    void
    emitMetadata(std::string &out, int pid, int tid, const char *what,
                 const std::string &name, bool &first) const
    {
        if (!first)
            out += ",\n";
        first = false;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "  {\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, "
                      "\"tid\": %d, \"args\": {\"name\": \"",
                      what, pid, tid);
        out += buf;
        out += jsonEscape(name) + "\"}}";
    }

    std::string
    renderLocked() const
    {
        std::string out;
        out.reserve(1 << 16);
        out += "{\n\"traceEvents\": [\n";
        bool first = true;
        emitMetadata(out, kWallPid, 0, "process_name", "wall clock",
                     first);
        emitMetadata(out, kSimPid, 0, "process_name", "simulated cycles",
                     first);
        for (const auto &buf : buffers_) {
            std::lock_guard<std::mutex> blk(buf->mu);
            if (!buf->name.empty())
                emitMetadata(out, kWallPid, buf->tid, "thread_name",
                             buf->name, first);
            for (const Event &e : buf->events)
                emitEvent(out, e, first);
        }
        for (const auto &[tid, label] : simTracks_)
            emitMetadata(out, kSimPid, tid, "thread_name", label, first);
        out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
        return out;
    }

    std::mutex mu_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::vector<std::pair<int, std::string>> simTracks_;
    std::string path_;
    int nextTid_ = 1;
    int nextSimTid_ = 1;
    bool atexitRegistered_ = false;
    const std::chrono::steady_clock::time_point epoch_;
};

} // namespace

void
start(const std::string &path)
{
    Recorder::instance().start(path);
}

bool
stop()
{
    return Recorder::instance().stop();
}

std::string
outputPath()
{
    return Recorder::instance().path();
}

double
nowUs()
{
    return Recorder::instance().nowUs();
}

void
setThreadName(const std::string &name)
{
    Recorder::instance().setThreadName(name);
}

void
instant(const char *category, std::string name, Args args)
{
    if (!enabled())
        return;
    Recorder &r = Recorder::instance();
    Event e;
    e.name = std::move(name);
    e.category = category;
    e.phase = 'i';
    e.tid = r.threadBuffer().tid;
    e.ts = r.nowUs();
    e.args = std::move(args);
    r.record(std::move(e));
}

void
counter(const char *category, const char *name, double value)
{
    if (!enabled())
        return;
    Recorder &r = Recorder::instance();
    Event e;
    e.name = name;
    e.category = category;
    e.phase = 'C';
    e.tid = 0; // counters share one process-wide track per name
    e.ts = r.nowUs();
    e.args.push_back({"value", value});
    r.record(std::move(e));
}

void
completeSpan(const char *category, std::string name, double ts_us,
             double dur_us, Args args)
{
    if (!enabled())
        return;
    Recorder &r = Recorder::instance();
    Event e;
    e.name = std::move(name);
    e.category = category;
    e.phase = 'X';
    e.tid = r.threadBuffer().tid;
    e.ts = ts_us;
    e.dur = dur_us;
    e.args = std::move(args);
    r.record(std::move(e));
}

Scope::~Scope()
{
    if (startUs_ < 0.0 || !enabled())
        return;
    completeSpan(category_,
                 staticName_ ? std::string(staticName_)
                             : std::move(dynName_),
                 startUs_, nowUs() - startUs_, std::move(args_));
}

SimTrack
simTrack(std::string label)
{
    if (!enabled())
        return {};
    return {Recorder::instance().newSimTrack(std::move(label))};
}

void
simSpan(const SimTrack &track, const char *name,
        std::uint64_t start_cycles, std::uint64_t dur_cycles, Args args)
{
    if (!track.active() || dur_cycles == 0 || !enabled())
        return;
    Recorder &r = Recorder::instance();
    Event e;
    e.name = name;
    e.category = "sim";
    e.phase = 'X';
    e.pid = kSimPid;
    e.tid = track.tid;
    e.ts = static_cast<double>(start_cycles);
    e.dur = static_cast<double>(dur_cycles);
    e.args = std::move(args);
    r.record(std::move(e));
}

void
simInstant(const SimTrack &track, std::string name,
           std::uint64_t at_cycles, Args args)
{
    if (!track.active() || !enabled())
        return;
    Recorder &r = Recorder::instance();
    Event e;
    e.name = std::move(name);
    e.category = "sim";
    e.phase = 'i';
    e.pid = kSimPid;
    e.tid = track.tid;
    e.ts = static_cast<double>(at_cycles);
    e.args = std::move(args);
    r.record(std::move(e));
}

std::size_t
bufferedEventCountForTest()
{
    return Recorder::instance().bufferedEvents();
}

void
resetForTest()
{
    Recorder::instance().reset();
}

} // namespace cfconv::trace
