/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries. Each
 * binary regenerates one table or figure of the paper and prints the
 * series in a uniform tabular format, alongside the paper's headline
 * numbers for comparison (recorded in EXPERIMENTS.md). A bench reads
 * its `key=value` arguments into a Config (common/config), reads its
 * own keys through the typed getters, then calls startBench() for the
 * keys every bench takes: `threads=N` (as CFCONV_THREADS=N does),
 * `trace=FILE`, `faults=SPEC` and `metrics=FILE`. A value that does
 * not parse, or a key the bench does not read, exits 2 naming it.
 * Every bench prints a machine-parseable `WALL` line with its
 * wall-clock time.
 */

#ifndef CFCONV_BENCH_BENCH_UTIL_H
#define CFCONV_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/config.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/table.h"
#include "common/trace.h"
#include "conv/algorithm.h"
#include "sim/accelerator.h"
#include "tensor/microkernel.h"

namespace cfconv::bench {

/** Print the standard header for one reproduced experiment. */
inline void
experimentHeader(const char *experiment_id, const char *description)
{
    std::printf("\n################################################\n");
    std::printf("# %s\n", experiment_id);
    std::printf("# %s\n", description);
    std::printf("################################################\n");
}

/** Print a one-line paper-vs-measured summary for EXPERIMENTS.md. */
inline void
summaryLine(const char *experiment_id, const char *metric, double paper,
            double measured)
{
    std::printf("SUMMARY %s | %s | paper=%.4g | measured=%.4g\n",
                experiment_id, metric, paper, measured);
}

/** Steady-clock wall timer for the bench-wide WALL summary lines. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

    void reset() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Exit 2 with @p status on stderr unless it is OK: how a bench turns
 *  bad input into its exit code. */
inline void
exitIfError(const Status &status)
{
    if (status.ok())
        return;
    std::fprintf(stderr, "%s\n", status.toString().c_str());
    std::exit(2);
}

/** @p parsed's value, or exit 2 with its status. */
template <typename T>
T
valueOrExit(StatusOr<T> parsed)
{
    exitIfError(parsed.status());
    return std::move(parsed).value();
}

/** The command line as a Config; exit 2 when an argument is not
 *  `key=value` or repeats a key. */
inline Config
readArgs(int argc, char **argv)
{
    return valueOrExit(Config::fromArgs(argc, argv));
}

/** @p args's integer @p key, at least 1; @p fallback when absent. */
inline StatusOr<long long>
positiveInt(const Config &args, const char *key, long long fallback)
{
    CFCONV_ASSIGN_OR_RETURN(const long long value,
                            args.getInt(key, fallback));
    if (args.has(key) && value < 1)
        return invalidArgumentError("bad %s=%lld (want an integer >= 1)",
                                    key, value);
    return value;
}

/** `algo=NAME`, a canonical conv::Algorithm name such as
 *  "channel-first" or "indirect"; empty when absent. */
inline StatusOr<std::string>
algoArg(const Config &args)
{
    CFCONV_ASSIGN_OR_RETURN(std::string name, args.getString("algo", ""));
    if (name.empty())
        return name;
    const StatusOr<conv::AlgorithmId> parsed =
        conv::parseAlgorithmName(name);
    if (!parsed.ok())
        return invalidArgumentError("bad algo=%s (%s)", name.c_str(),
                                    parsed.status().message().c_str());
    return name;
}

/** The keys every bench takes. */
struct BenchArgs
{
    /** Worker count (threads=N); 0 = leave the pool alone. */
    Index threads = 0;
    /** Chrome-trace destination (trace=FILE); empty = untraced. */
    std::string tracePath;
    /** Chaos spec (faults=SPEC; see common/fault.h for the grammar);
     *  empty = fault-free. */
    std::string faultsSpec;
    /** Destination of the process-wide MetricsRegistry snapshot
     *  (metrics=FILE), dumped at exit as a sorted deterministic
     *  "cfconv.metrics" JSON document; empty = no dump. */
    std::string metricsPath;
};

/**
 * Read the keys every bench takes from @p args, then check that a
 * getter read every key: call it once the bench has read its own, so
 * a typoed key fails instead of running the bench with defaults and
 * looking green. Reads only; arms nothing.
 */
inline StatusOr<BenchArgs>
readBenchArgs(const Config &args)
{
    BenchArgs out;
    CFCONV_ASSIGN_OR_RETURN(out.threads, positiveInt(args, "threads", 0));
    CFCONV_ASSIGN_OR_RETURN(out.tracePath, args.getString("trace", ""));
    CFCONV_ASSIGN_OR_RETURN(out.faultsSpec, args.getString("faults", ""));
    CFCONV_ASSIGN_OR_RETURN(out.metricsPath,
                            args.getString("metrics", ""));
    CFCONV_RETURN_IF_ERROR(args.checkAllRead());
    return out;
}

/**
 * readBenchArgs(), then apply the keys: arm the fault injector, size
 * the pool, arm the trace recorder (flushed at exit, loadable in
 * Perfetto) and dump the metrics at exit. Exit 2 on the first error,
 * before anything is armed.
 */
inline void
startBench(const Config &args)
{
    const BenchArgs bench = valueOrExit(readBenchArgs(args));
    // configure() errors already carry a "faults:" prefix.
    if (!bench.faultsSpec.empty())
        exitIfError(
            fault::FaultInjector::instance().configure(bench.faultsSpec));
    if (bench.threads > 0)
        parallel::setThreads(bench.threads);
    if (!bench.tracePath.empty())
        trace::start(bench.tracePath);
    if (!bench.metricsPath.empty()) {
        // Flush at exit so the dump sees everything the bench
        // recorded; the path lives in a function-local static because
        // atexit takes a plain function pointer. Touch the registry
        // singleton first: its destructor must be registered before
        // our handler so the handler still sees a live registry.
        MetricsRegistry::instance();
        static std::string path;
        path = bench.metricsPath;
        std::atexit([] {
            writeMetricsJson(path,
                             MetricsRegistry::instance().snapshot());
        });
    }
}

/** Machine-parseable memo-cache summary for one backend; printed by
 *  the model-driven benches so the trajectory tracks how much of a
 *  sweep the layer/kernel caches absorbed. */
inline void
printCacheStats(const sim::Accelerator &accelerator)
{
    std::string line = "CACHE " + accelerator.name();
    // Materialize the snapshot: counters() returns a reference into
    // the StatGroup, which must outlive the loop.
    const StatGroup stats = accelerator.cacheStats();
    for (const auto &[name, value] : stats.counters()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " | %s=%.0f", name.c_str(),
                      value);
        line += buf;
    }
    std::printf("%s\n", line.c_str());
}

/** Machine-parseable latency-percentile lines from the process-wide
 *  MetricsRegistry (one STAT line per sampled distribution): the
 *  p50/p95/p99/p99.9 come from the Scalar log histograms, so the
 *  model benches expose tail behaviour, not just totals. */
inline void
printLatencyStats()
{
    const StatGroup stats = MetricsRegistry::instance().snapshot();
    for (const auto &[name, s] : stats.scalars()) {
        if (s.count() == 0)
            continue;
        std::printf("STAT %s | n=%llu | mean=%.4g | p50=%.4g | "
                    "p95=%.4g | p99=%.4g | p999=%.4g\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.count()),
                    s.mean(), s.p50(), s.p95(), s.p99(), s.p999());
    }
}

/** Machine-parseable wall-clock summary; run_all.sh greps "^WALL".
 *  Includes the GEMM micro-kernel backend so speedups in the bench
 *  trajectory are attributable to the kernel actually dispatched. */
inline void
printWallClock(const char *bench_name, const WallTimer &timer)
{
    std::printf("WALL %s | %.3f s | threads=%lld | kernel=%s\n",
                bench_name, timer.seconds(),
                static_cast<long long>(parallel::threads()),
                tensor::activeKernelBackendName());
}

} // namespace cfconv::bench

#endif // CFCONV_BENCH_BENCH_UTIL_H
