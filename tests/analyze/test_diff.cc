/** @file Tests for the cross-trace diff (analyze/diff): alignment by
 *  normalized signature including layers missing on one side, the
 *  delta arithmetic, and the acceptance scenario — one model recorded
 *  on tpu-v2 aligns layer-for-layer against the same model on
 *  gpu-v100 even though the two backends label their timelines
 *  differently. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "analyze/analysis.h"
#include "analyze/analysis_report.h"
#include "analyze/diff.h"
#include "analyze/trace_model.h"
#include "common/trace.h"
#include "gpusim/kernel_cache.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "tpusim/layer_cache.h"

namespace cfconv::analyze {
namespace {

TimelineAnalysis
timeline(const std::string &key, double span, double overlapRatio,
         bool fillBound)
{
    TimelineAnalysis t;
    t.key = key;
    t.signature = timelineSignature(key);
    t.spanCycles = span;
    t.overlapRatio = overlapRatio;
    t.fillBound = fillBound;
    return t;
}

TEST(DiffAnalyses, AlignsBySignatureAndReportsOneSidedLayers)
{
    // Left: a TPU-style run. Right: a GPU-style run of an overlapping
    // but not identical layer set.
    TraceAnalysis left;
    left.timelines = {
        timeline("conv 3x3 64->64 M=12544", 100.0, 0.0, false),
        timeline("conv 1x1 64->256 M=12544", 50.0, 0.0, false),
        timeline("conv 11x11 3->96 M=3025", 400.0, 0.0, false),
    };
    TraceAnalysis right;
    right.timelines = {
        timeline("cf-conv 3x3 64->64", 50.0, 0.5, true),
        timeline("cf-conv 1x1 64->256", 100.0, 0.25, false),
        timeline("cf-conv 5x5 96->256", 70.0, 0.1, true),
    };

    const AnalysisDiff diff = diffAnalyses(left, right);
    ASSERT_EQ(diff.aligned.size(), 2u);
    ASSERT_EQ(diff.leftOnly.size(), 1u);
    ASSERT_EQ(diff.rightOnly.size(), 1u);

    // Sorted by signature: "1x1 64->256" before "3x3 64->64".
    const DiffRow &r0 = diff.aligned[0];
    EXPECT_EQ(r0.signature, "1x1 64->256");
    EXPECT_EQ(r0.leftKey, "conv 1x1 64->256 M=12544");
    EXPECT_EQ(r0.rightKey, "cf-conv 1x1 64->256");
    EXPECT_DOUBLE_EQ(r0.spanRatio, 2.0);
    EXPECT_DOUBLE_EQ(r0.overlapDelta, 0.25);
    EXPECT_FALSE(r0.leftFillBound);
    EXPECT_FALSE(r0.rightFillBound);

    const DiffRow &r1 = diff.aligned[1];
    EXPECT_EQ(r1.signature, "3x3 64->64");
    EXPECT_DOUBLE_EQ(r1.spanRatio, 0.5);
    EXPECT_DOUBLE_EQ(r1.overlapDelta, 0.5);
    EXPECT_TRUE(r1.rightFillBound);

    // Missing layers are listed, never dropped.
    EXPECT_EQ(diff.leftOnly[0].signature, "11x11 3->96");
    EXPECT_EQ(diff.leftOnly[0].leftKey, "conv 11x11 3->96 M=3025");
    EXPECT_TRUE(diff.leftOnly[0].rightKey.empty());
    EXPECT_EQ(diff.rightOnly[0].signature, "5x5 96->256");

    // Headline aggregates: geomean of {2.0, 0.5} is 1, one flip.
    EXPECT_DOUBLE_EQ(diff.spanRatioGeoMean, 1.0);
    EXPECT_DOUBLE_EQ(diff.overlapDeltaMean, (0.25 + 0.5) / 2.0);
    EXPECT_EQ(diff.boundednessFlips, 1u);

    // The emitted document carries all three row groups.
    const std::string json = diffJson(diff);
    EXPECT_NE(json.find("\"cfconv.trace_analysis_diff\""),
              std::string::npos);
    EXPECT_NE(json.find("\"left_only\""), std::string::npos);
    EXPECT_NE(json.find("11x11 3->96"), std::string::npos);
    // Two stock sides still carry the resilience section.
    EXPECT_NE(json.find("\"version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"breaker_trips\""), std::string::npos);
}

TEST(DiffAnalyses, EmptySidesDiffCleanly)
{
    const AnalysisDiff diff = diffAnalyses({}, {});
    EXPECT_TRUE(diff.aligned.empty());
    EXPECT_EQ(diff.spanRatioGeoMean, 0.0);
    EXPECT_EQ(diff.overlapDeltaMean, 0.0);
}

TEST(DiffAnalyses, CrossBackendTracesAlignLayerForLayer)
{
    const auto record = [](const char *backend,
                           const std::string &path) {
        tpusim::LayerCache::instance().clear();
        gpusim::KernelCache::instance().clear();
        trace::start(path);
        const auto accelerator = sim::makeAccelerator(backend);
        sim::ModelRunner(*accelerator).runModel(models::alexnet(8));
        EXPECT_TRUE(trace::stop());
        auto doc = parseTraceFile(path);
        EXPECT_TRUE(doc.ok()) << doc.status().toString();
        std::remove(path.c_str());
        return analyzeTrace(std::move(doc).value());
    };

    const TraceAnalysis tpu = record(
        "tpu-v2", ::testing::TempDir() + "cfconv_diff_tpu.trace");
    trace::resetForTest();
    const TraceAnalysis gpu = record(
        "gpu-v100", ::testing::TempDir() + "cfconv_diff_gpu.trace");
    trace::resetForTest();

    const AnalysisDiff diff = diffAnalyses(tpu, gpu);
    // Same model, same layers: every timeline aligns despite the
    // different labels ("conv ... M=" vs "cf-conv ...").
    EXPECT_EQ(diff.aligned.size(), tpu.timelines.size());
    EXPECT_TRUE(diff.leftOnly.empty());
    EXPECT_TRUE(diff.rightOnly.empty());
    EXPECT_GT(diff.spanRatioGeoMean, 0.0);
    for (const auto &row : diff.aligned) {
        EXPECT_GT(row.spanRatio, 0.0) << row.signature;
        EXPECT_TRUE(std::isfinite(row.spanRatio)) << row.signature;
    }
}

} // namespace
} // namespace cfconv::analyze
