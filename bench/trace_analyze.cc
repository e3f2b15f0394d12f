/**
 * @file
 * Offline trace analytics CLI: load a recorded Chrome-trace file
 * (trace=FILE from any bench) and report what the simulated-cycle
 * timelines say — per-layer fill/compute overlap and critical-path
 * breakdown, serving-chip occupancy, resilience events, and (wall=on,
 * the default) thread-pool and memo-cache activity.
 *
 *   trace_analyze IN.trace [json=FILE] [diff=OTHER.trace] [wall=on|off]
 *
 * With diff=OTHER.trace the two analyses align by normalized timeline
 * signature and the deltas are reported instead; json=FILE then
 * receives the "cfconv.trace_analysis_diff" document rather than the
 * single-trace "cfconv.trace_analysis" one. Output is a pure function
 * of the input trace bytes: same trace, same bytes out, regardless of
 * thread count or repetition (scripts/check_analyze.sh enforces it).
 * Arguments are read by common/config like the benches': an unknown
 * key, a bad value or other than one trace exits 2 naming the
 * offender.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/analysis_report.h"
#include "analyze/diff.h"
#include "analyze/trace_model.h"
#include "common/config.h"
#include "common/report.h"

using namespace cfconv;

namespace {

struct Args
{
    std::string inPath;
    std::string jsonPath;
    std::string diffPath;
    analyze::AnalyzeOptions options;
};

/** The command line: one trace operand and the json=, diff= and wall=
 *  keys; INVALID_ARGUMENT naming the first bad argument. */
StatusOr<Args>
readArgs(int argc, char **argv)
{
    std::vector<std::string> traces;
    CFCONV_ASSIGN_OR_RETURN(const Config config,
                            Config::fromArgs(argc, argv, &traces));
    Args args;
    CFCONV_ASSIGN_OR_RETURN(args.jsonPath, config.getString("json", ""));
    CFCONV_ASSIGN_OR_RETURN(args.diffPath, config.getString("diff", ""));
    CFCONV_ASSIGN_OR_RETURN(args.options.includeWall,
                            config.getBool("wall", true));
    CFCONV_RETURN_IF_ERROR(config.checkAllRead());
    if (traces.size() != 1)
        return invalidArgumentError(
            "want one input trace, got %zu (usage: %s IN.trace "
            "[json=FILE] [diff=OTHER.trace] [wall=on|off])",
            traces.size(), argv[0]);
    args.inPath = traces[0];
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const StatusOr<Args> args = readArgs(argc, argv);
    if (!args.ok()) {
        std::fprintf(stderr, "%s\n", args.status().toString().c_str());
        return 2;
    }
    const auto &[inPath, jsonPath, diffPath, options] = *args;

    auto doc = analyze::parseTraceFile(inPath);
    if (!doc.ok()) {
        std::fprintf(stderr, "%s\n", doc.status().toString().c_str());
        return 1;
    }
    const analyze::TraceAnalysis left =
        analyze::analyzeTrace(doc.value(), options);
    std::printf("%s\n",
                analyze::analysisHeadline(inPath, left).c_str());
    analyze::printAnalysis(left);

    if (diffPath.empty()) {
        if (!jsonPath.empty() &&
            writeFile(jsonPath, analyze::analysisJson(left)))
            std::printf("wrote %s\n", jsonPath.c_str());
        return 0;
    }

    auto other = analyze::parseTraceFile(diffPath);
    if (!other.ok()) {
        std::fprintf(stderr, "%s\n",
                     other.status().toString().c_str());
        return 1;
    }
    const analyze::TraceAnalysis right =
        analyze::analyzeTrace(other.value(), options);
    std::printf("%s\n",
                analyze::analysisHeadline(diffPath, right).c_str());

    const analyze::AnalysisDiff diff =
        analyze::diffAnalyses(left, right);
    std::printf("%s\n", analyze::diffHeadline(diff).c_str());
    analyze::printDiff(diff);
    if (!jsonPath.empty() &&
        writeFile(jsonPath, analyze::diffJson(diff)))
        std::printf("wrote %s\n", jsonPath.c_str());
    return 0;
}
