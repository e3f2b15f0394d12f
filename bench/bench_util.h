/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries. Each
 * binary regenerates one table or figure of the paper and prints the
 * series in a uniform tabular format, alongside the paper's headline
 * numbers for comparison (recorded in EXPERIMENTS.md). All binaries
 * accept a `threads=N` argument (equivalent to CFCONV_THREADS=N) and
 * print a machine-parseable `WALL` line with their wall-clock time.
 */

#ifndef CFCONV_BENCH_BENCH_UTIL_H
#define CFCONV_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

/** Parsed uniform bench arguments (see parseBenchArgs). */
struct BenchArgs
{
    /** Worker-count override (threads=N); 0 = leave the pool alone. */
    Index threads = 0;
    /** Destination of the structured JSON report (json=FILE), empty
     *  when not requested. Benches that emit a sim::RunRecord
     *  document honor it; report-less benches reject it. */
    std::string jsonPath;
    /** Destination of the Chrome-trace file (trace=FILE), empty when
     *  the run is untraced. The parser arms the recorder itself. */
    std::string tracePath;
    /** Chaos spec (faults=SPEC; see common/fault.h for the grammar),
     *  empty when the run is fault-free. The parser arms the
     *  injector itself. */
    std::string faultsSpec;
    /** Workload seed override (seed=N); 0 = the bench's default.
     *  Consumed by the traffic-driven benches (bench_serving); the
     *  paper-figure benches have no randomness to seed and reject
     *  it via supports_workload. */
    std::uint64_t seed = 0;
    /** Arrival-stream kind override (stream=NAME, e.g. "poisson",
     *  "bursty", "diurnal"); empty = the bench's default. Validated
     *  by the consuming bench, not here. */
    std::string stream;
    /** Algorithm filter (algo=NAME, a canonical conv::Algorithm name
     *  such as "channel-first" or "indirect"); empty = the bench's
     *  default (usually the full algorithm matrix). Validated here
     *  against the conv::Algorithm registry; only the algorithm-aware
     *  benches (bench_fig4_stride) accept it, via supports_algo. */
    std::string algo;
    /** Destination of the process-wide MetricsRegistry snapshot
     *  (metrics=FILE), dumped at exit as a sorted deterministic
     *  "cfconv.metrics" JSON document (the same counters/histograms
     *  shape as the RunRecord metrics block). Empty = no dump.
     *  Accepted by every bench — the registry is process-wide. */
    std::string metricsPath;
    /** Model filter (model=NAME, e.g. "ResNet"); empty = the bench's
     *  default (usually the whole zoo). Only the model-sweep benches
     *  accept it, via supports_selection; matched case-sensitively by
     *  the consuming bench, which exits 2 on an unknown name. */
    std::string model;
    /** Backend filter (backend=NAME, e.g. "tpu-v2", "gpu-v100");
     *  empty = all of the bench's backends. Only the model-sweep
     *  benches accept it, via supports_selection. */
    std::string backend;
    /** Serving model-class spec (classes=SPEC, comma-separated
     *  "name[:weight[:priority[:sloMs]]]" entries; see
     *  serve::parseClassSpecs); empty = the bench's default mix.
     *  Only the serving benches accept it, via supports_workload;
     *  validated by the consuming bench, which exits 2 on a
     *  malformed spec. */
    std::string classes;
};

/**
 * The recoverable core of parseBenchArgs: pure parse into @p args, no
 * side effects, INVALID_ARGUMENT naming the offending argument. Every
 * unknown `key=value` is an error, never silently ignored — a typoed
 * knob must not run the bench with defaults and look green.
 */
inline Status
tryParseBenchArgs(int argc, char **argv, bool supports_json,
                  BenchArgs *args, bool supports_workload = false,
                  bool supports_algo = false,
                  bool supports_selection = false)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "threads=", 8) == 0) {
            args->threads = parallel::parseThreadCount(argv[i] + 8);
            if (args->threads == 0)
                return invalidArgumentError(
                    "bad threads=%s (want an integer >= 1)", argv[i] + 8);
        } else if (supports_json &&
                   std::strncmp(argv[i], "json=", 5) == 0 &&
                   argv[i][5] != '\0') {
            args->jsonPath = argv[i] + 5;
        } else if (std::strncmp(argv[i], "trace=", 6) == 0 &&
                   argv[i][6] != '\0') {
            args->tracePath = argv[i] + 6;
        } else if (std::strncmp(argv[i], "faults=", 7) == 0 &&
                   argv[i][7] != '\0') {
            args->faultsSpec = argv[i] + 7;
        } else if (supports_workload &&
                   std::strncmp(argv[i], "seed=", 5) == 0) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(argv[i] + 5, &end, 10);
            if (argv[i][5] == '\0' || end == nullptr || *end != '\0' ||
                v == 0)
                return invalidArgumentError(
                    "bad seed=%s (want an integer >= 1)", argv[i] + 5);
            args->seed = v;
        } else if (supports_workload &&
                   std::strncmp(argv[i], "stream=", 7) == 0 &&
                   argv[i][7] != '\0') {
            args->stream = argv[i] + 7;
        } else if (supports_workload &&
                   std::strncmp(argv[i], "classes=", 8) == 0 &&
                   argv[i][8] != '\0') {
            args->classes = argv[i] + 8;
        } else if (supports_algo &&
                   std::strncmp(argv[i], "algo=", 5) == 0) {
            const StatusOr<conv::AlgorithmId> parsed =
                conv::parseAlgorithmName(argv[i] + 5);
            if (!parsed.ok())
                return invalidArgumentError(
                    "bad algo=%s (%s)", argv[i] + 5,
                    parsed.status().message().c_str());
            args->algo = argv[i] + 5;
        } else if (std::strncmp(argv[i], "metrics=", 8) == 0 &&
                   argv[i][8] != '\0') {
            args->metricsPath = argv[i] + 8;
        } else if (supports_selection &&
                   std::strncmp(argv[i], "model=", 6) == 0 &&
                   argv[i][6] != '\0') {
            args->model = argv[i] + 6;
        } else if (supports_selection &&
                   std::strncmp(argv[i], "backend=", 8) == 0 &&
                   argv[i][8] != '\0') {
            args->backend = argv[i] + 8;
        } else {
            return invalidArgumentError(
                "unknown argument \"%s\" (supported: threads=N, "
                "trace=FILE, faults=SPEC, metrics=FILE%s%s%s%s)",
                argv[i], supports_json ? ", json=FILE" : "",
                supports_workload
                    ? ", seed=N, stream=NAME, classes=SPEC"
                    : "",
                supports_algo ? ", algo=NAME" : "",
                supports_selection ? ", model=NAME, backend=NAME" : "");
        }
    }
    return okStatus();
}

/**
 * Parse the uniform bench arguments — the one place bench CLI syntax
 * is defined: `threads=N` overrides the worker count (same effect as
 * CFCONV_THREADS=N), `json=FILE` requests a structured JSON report,
 * `trace=FILE` arms the Chrome-trace recorder (same effect as
 * CFCONV_TRACE=FILE; flushed at exit, loadable in Perfetto), and
 * `faults=SPEC` arms the fault injector (same effect as
 * CFCONV_FAULTS=SPEC). Pass @p supports_json = false from binaries
 * that have no report so a stray json= errors out instead of silently
 * doing nothing; pass @p supports_workload = true from traffic-driven
 * binaries (bench_serving) to additionally accept `seed=N` (workload
 * seed) and `stream=NAME` (arrival-stream kind); pass
 * @p supports_algo = true from algorithm-aware binaries
 * (bench_fig4_stride) to additionally accept `algo=NAME` (a canonical
 * conv::Algorithm name, validated against the registry); pass
 * @p supports_selection = true from model-sweep binaries
 * (bench_models_report) to additionally accept `model=NAME` and
 * `backend=NAME` filters. `metrics=FILE` (dump the process-wide
 * MetricsRegistry snapshot as deterministic JSON at exit) is accepted
 * everywhere. Unknown arguments and malformed values exit 2 with the
 * structured error naming the offender.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, bool supports_json = true,
               bool supports_workload = false,
               bool supports_algo = false,
               bool supports_selection = false)
{
    BenchArgs args;
    Status status = tryParseBenchArgs(argc, argv, supports_json, &args,
                                      supports_workload, supports_algo,
                                      supports_selection);
    // configure() errors already carry a "faults:" prefix.
    if (status.ok() && !args.faultsSpec.empty())
        status = fault::FaultInjector::instance()
                     .configure(args.faultsSpec);
    if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.toString().c_str());
        std::exit(2);
    }
    if (args.threads > 0)
        parallel::setThreads(args.threads);
    if (!args.tracePath.empty())
        trace::start(args.tracePath);
    if (!args.metricsPath.empty()) {
        // Flush at exit so the dump sees everything the bench
        // recorded; the path lives in a function-local static because
        // atexit takes a plain function pointer. Touch the registry
        // singleton first: its destructor must be registered before
        // our handler so the handler still sees a live registry.
        MetricsRegistry::instance();
        static std::string path;
        path = args.metricsPath;
        std::atexit([] {
            writeMetricsJson(path,
                             MetricsRegistry::instance().snapshot());
        });
    }
    return args;
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
