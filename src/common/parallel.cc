#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/trace.h"

namespace cfconv::parallel {

namespace {

/** Depth of parallelFor frames on this thread; > 0 means run inline. */
thread_local int tls_parallel_depth = 0;

/** One parallelFor invocation shared between the submitter and workers. */
struct Job
{
    Index begin = 0;
    Index end = 0;
    Index chunk = 1;
    Index numChunks = 0;
    const std::function<void(Index, Index)> *body = nullptr;
    std::atomic<Index> nextChunk{0};
    std::atomic<Index> pendingChunks{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorMutex;
};

class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    ~ThreadPool() { stopWorkers(); }

    Index
    threads()
    {
        std::lock_guard<std::mutex> lock(configMutex_);
        if (configured_ == 0)
            configured_ = defaultThreads();
        return configured_;
    }

    void
    setThreads(Index n)
    {
        CFCONV_FATAL_IF(n < 0, "parallel::setThreads: negative count");
        stopWorkers();
        std::lock_guard<std::mutex> lock(configMutex_);
        configured_ = n > 0 ? n : defaultThreads();
    }

    void
    run(Index begin, Index end, Index grain,
        const std::function<void(Index, Index)> &body)
    {
        const Index lanes = threads();
        const Index range = end - begin;
        if (tls_parallel_depth > 0 || lanes <= 1 || range <= grain) {
            ++tls_parallel_depth;
            try {
                body(begin, end);
            } catch (...) {
                --tls_parallel_depth;
                throw;
            }
            --tls_parallel_depth;
            return;
        }

        // Chunk so each lane gets a few chunks (mild load balancing)
        // without ever splitting below the caller's grain.
        Job job;
        job.begin = begin;
        job.end = end;
        job.chunk = std::max(grain, divCeil(range, lanes * 4));
        job.numChunks = divCeil(range, job.chunk);
        job.body = &body;
        job.pendingChunks.store(job.numChunks,
                                std::memory_order_relaxed);

        TRACE_SCOPE("pool", "parallelFor");
        TRACE_COUNTER("pool", "queue_depth", job.numChunks);

        std::unique_lock<std::mutex> submit(submitMutex_);
        ensureStarted(lanes);
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            job_ = &job;
            ++generation_;
        }
        wakeWorkers_.notify_all();

        // The submitting thread is one of the lanes.
        TRACE_COUNTER("pool", "active_workers",
                      activeLanes_.fetch_add(1,
                                             std::memory_order_relaxed) +
                          1);
        processChunks(job);
        TRACE_COUNTER("pool", "active_workers",
                      activeLanes_.fetch_sub(1,
                                             std::memory_order_relaxed) -
                          1);

        // Wait until every chunk retired AND every worker detached
        // from the job, so the stack-allocated Job cannot be touched
        // after this frame returns.
        std::unique_lock<std::mutex> lock(jobMutex_);
        jobDone_.wait(lock, [&] {
            return job.pendingChunks.load(std::memory_order_acquire) ==
                       0 &&
                   activeWorkers_ == 0;
        });
        job_ = nullptr;
        lock.unlock();

        if (job.error)
            std::rethrow_exception(job.error);
    }

  private:
    static Index
    defaultThreads()
    {
        if (const char *env = std::getenv("CFCONV_THREADS")) {
            // parseDecimal(), as the threads= argument reads it.
            const std::optional<long long> n = parseDecimal(env);
            if (n && *n >= 1)
                return static_cast<Index>(*n);
            warn("CFCONV_THREADS=\"%s\" is not a positive integer; "
                 "using hardware concurrency",
                 env);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw >= 1 ? static_cast<Index>(hw) : 1;
    }

    void
    ensureStarted(Index lanes)
    {
        // Pool workers are the lanes beyond the submitting thread.
        const size_t want = static_cast<size_t>(lanes - 1);
        if (workers_.size() == want)
            return;
        stopWorkersLocked();
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            stopping_ = false;
        }
        workers_.reserve(want);
        for (size_t i = 0; i < want; ++i) {
            workers_.emplace_back([this, i] {
                trace::setThreadName("worker-" + std::to_string(i + 1));
                workerLoop();
            });
        }
    }

    void
    stopWorkers()
    {
        std::lock_guard<std::mutex> submit(submitMutex_);
        stopWorkersLocked();
    }

    void
    stopWorkersLocked()
    {
        if (workers_.empty())
            return;
        {
            std::lock_guard<std::mutex> lock(jobMutex_);
            stopping_ = true;
            ++generation_;
        }
        wakeWorkers_.notify_all();
        for (auto &w : workers_)
            w.join();
        workers_.clear();
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            Job *job = nullptr;
            {
                std::unique_lock<std::mutex> lock(jobMutex_);
                wakeWorkers_.wait(lock, [&] {
                    return stopping_ || generation_ != seen;
                });
                seen = generation_;
                if (stopping_)
                    return;
                job = job_;
                if (job)
                    ++activeWorkers_;
            }
            if (job) {
                TRACE_COUNTER("pool", "active_workers",
                              activeLanes_.fetch_add(
                                  1, std::memory_order_relaxed) +
                                  1);
                processChunks(*job);
                TRACE_COUNTER("pool", "active_workers",
                              activeLanes_.fetch_sub(
                                  1, std::memory_order_relaxed) -
                                  1);
                std::lock_guard<std::mutex> lock(jobMutex_);
                if (--activeWorkers_ == 0)
                    jobDone_.notify_all();
            }
        }
    }

    void
    processChunks(Job &job)
    {
        ++tls_parallel_depth;
        for (;;) {
            const Index c =
                job.nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= job.numChunks)
                break;
            const Index b = job.begin + c * job.chunk;
            const Index e = std::min(job.end, b + job.chunk);
            // Chaos site: a stalled worker. Purely a latency fault —
            // the chunk still runs, so results stay bit-exact; what
            // the stall exercises is the pool's load balancing and
            // the wall-clock tail the metrics/trace layers report.
            if (fault::FaultInjector::instance().inject(
                    fault::kPoolWorkerStall, "",
                    static_cast<std::uint64_t>(c)))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            trace::Scope chunkSpan("pool", "chunk");
            chunkSpan.arg("begin", static_cast<double>(b));
            chunkSpan.arg("end", static_cast<double>(e));
            TRACE_COUNTER(
                "pool", "queue_depth",
                std::max<Index>(0, job.numChunks -
                                       job.nextChunk.load(
                                           std::memory_order_relaxed)));
            if (!job.failed.load(std::memory_order_relaxed)) {
                try {
                    (*job.body)(b, e);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(job.errorMutex);
                    if (!job.error)
                        job.error = std::current_exception();
                    job.failed.store(true, std::memory_order_relaxed);
                }
            }
            if (job.pendingChunks.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(jobMutex_);
                jobDone_.notify_all();
            }
        }
        --tls_parallel_depth;
    }

    std::mutex configMutex_;
    std::mutex submitMutex_; ///< serializes concurrent parallelFor calls
    std::mutex jobMutex_;    ///< guards job_/generation_/stopping_
    std::condition_variable wakeWorkers_;
    std::condition_variable jobDone_;
    std::vector<std::thread> workers_;
    Job *job_ = nullptr;
    std::atomic<Index> activeLanes_{0}; ///< lanes in processChunks (trace)
    Index activeWorkers_ = 0;
    std::uint64_t generation_ = 0;
    bool stopping_ = false;
    Index configured_ = 0; ///< 0 = not yet initialized
};

} // namespace

Index
threads()
{
    return ThreadPool::instance().threads();
}

void
setThreads(Index n)
{
    ThreadPool::instance().setThreads(n);
}

void
parallelFor(Index begin, Index end, Index grain,
            const std::function<void(Index, Index)> &body)
{
    CFCONV_FATAL_IF(grain < 1, "parallelFor: grain must be >= 1");
    if (begin >= end)
        return;
    ThreadPool::instance().run(begin, end, grain, body);
}

} // namespace cfconv::parallel
