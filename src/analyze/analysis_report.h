/**
 * @file
 * Emission half of the trace analyzer: the versioned
 * "cfconv.trace_analysis" / "cfconv.trace_analysis_diff" JSON
 * documents tools consume, and the human-readable tables
 * (common/table) the trace_analyze CLI prints. Emission is a pure
 * function of the analysis structs — all container iteration is over
 * pre-sorted vectors and std::maps — so the same analysis always
 * renders to the same bytes, which is what the determinism gate
 * (scripts/check_analyze.sh) byte-compares.
 */

#ifndef CFCONV_ANALYZE_ANALYSIS_REPORT_H
#define CFCONV_ANALYZE_ANALYSIS_REPORT_H

#include <cstdio>
#include <string>

#include "analyze/analysis.h"
#include "analyze/diff.h"

namespace cfconv::analyze {

/** Schemas and the version stamped into every analysis and diff
 *  document. Both always carry the resilience section (breaker
 *  timelines, hedge tallies, degradation occupancy), all zero and
 *  empty on stock traces. */
inline constexpr const char kAnalysisSchema[] = "cfconv.trace_analysis";
inline constexpr const char kDiffSchema[] = "cfconv.trace_analysis_diff";
inline constexpr int kAnalysisSchemaVersion = 3;

/** The full analysis as a "cfconv.trace_analysis" JSON document
 *  (trailing newline included). */
std::string analysisJson(const TraceAnalysis &a);

/** The comparison as a "cfconv.trace_analysis_diff" JSON document
 *  (embeds both sides' critical paths, not the full analyses). */
std::string diffJson(const AnalysisDiff &d);

/** Print the per-timeline / critical-path / serving / wall tables. */
void printAnalysis(const TraceAnalysis &a, std::FILE *out = stdout);

/** Print the aligned-delta and one-sided tables. */
void printDiff(const AnalysisDiff &d, std::FILE *out = stdout);

/** One-line machine-greppable summary, e.g.
 *  "ANALYZE file.trace timelines=53 overlap=0.42 exposed_fill=0.31". */
std::string analysisHeadline(const std::string &label,
                             const TraceAnalysis &a);

/** One-line diff summary, e.g.
 *  "DIFF aligned=53 left_only=0 right_only=2 span_ratio_gmean=1.73". */
std::string diffHeadline(const AnalysisDiff &d);

} // namespace cfconv::analyze

#endif // CFCONV_ANALYZE_ANALYSIS_REPORT_H
