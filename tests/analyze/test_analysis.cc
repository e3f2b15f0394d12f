/** @file Tests for the offline trace analytics (analyze/analysis):
 *  interval/overlap math on synthetic timelines with hand-computed
 *  answers, signature normalization, duplicate-timeline collapse,
 *  round-trips on traces recorded from both simulator backends and
 *  the serving simulator, and the determinism contract — the non-wall
 *  analysis of a model run must be byte-identical whether the trace
 *  was recorded at 1 or 4 pool threads. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analyze/analysis.h"
#include "analyze/analysis_report.h"
#include "analyze/trace_model.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "gpusim/kernel_cache.h"
#include "models/model_zoo.h"
#include "serve/serving_sim.h"
#include "sim/model_runner.h"
#include "tpusim/layer_cache.h"

namespace cfconv::analyze {
namespace {

void
clearMemoCaches()
{
    tpusim::LayerCache::instance().clear();
    gpusim::KernelCache::instance().clear();
}

/** Build a one-timeline trace document from (start, dur) span lists
 *  on a "<label> fill" / "<label> compute" row pair. */
std::string
syntheticTrace(const std::vector<std::pair<double, double>> &fills,
               const std::vector<std::pair<double, double>> &computes,
               const std::string &label = "conv 3x3 64->64 M=100")
{
    std::string text = R"({"traceEvents": [
  {"name": "thread_name", "ph": "M", "pid": 2, "tid": 1,
   "args": {"name": ")" + label + R"( fill"}},
  {"name": "thread_name", "ph": "M", "pid": 2, "tid": 2,
   "args": {"name": ")" + label + R"( compute"}})";
    char buf[160];
    for (const auto &[ts, dur] : fills) {
        std::snprintf(buf, sizeof(buf),
                      ",\n  {\"name\": \"fill\", \"ph\": \"X\", "
                      "\"pid\": 2, \"tid\": 1, \"ts\": %g, "
                      "\"dur\": %g}",
                      ts, dur);
        text += buf;
    }
    for (const auto &[ts, dur] : computes) {
        std::snprintf(buf, sizeof(buf),
                      ",\n  {\"name\": \"compute\", \"ph\": \"X\", "
                      "\"pid\": 2, \"tid\": 2, \"ts\": %g, "
                      "\"dur\": %g}",
                      ts, dur);
        text += buf;
    }
    return text + "\n]}";
}

TraceAnalysis
analyzeText(const std::string &text, bool includeWall = true)
{
    const auto doc = parseTrace(text);
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    AnalyzeOptions options;
    options.includeWall = includeWall;
    return analyzeTrace(doc.value(), options);
}

TEST(UnionCycles, MergesOverlapsAndIgnoresEmpties)
{
    EXPECT_EQ(unionCycles({}), 0.0);
    EXPECT_EQ(unionCycles({{0, 10}}), 10.0);
    EXPECT_EQ(unionCycles({{0, 10}, {5, 15}}), 15.0);   // overlap
    EXPECT_EQ(unionCycles({{0, 10}, {10, 15}}), 15.0);  // adjacent
    EXPECT_EQ(unionCycles({{20, 30}, {0, 10}}), 20.0);  // unsorted gap
    EXPECT_EQ(unionCycles({{5, 5}, {0, 10}}), 10.0);    // degenerate
}

TEST(TimelineSignature, NormalizesAcrossBackendsAndAlgorithms)
{
    // The TPU's M= tail and every lowering word drop out.
    EXPECT_EQ(timelineSignature("conv 3x3 64->64 M=12544"),
              "3x3 64->64");
    EXPECT_EQ(timelineSignature("cf-conv 3x3 64->64"), "3x3 64->64");
    EXPECT_EQ(timelineSignature("cf-conv+reuse 1x1 256->512"),
              "1x1 256->512");
    EXPECT_EQ(timelineSignature("indirect-conv 7x7 3->64 M=100352"),
              "7x7 3->64");
    // GEMM and unknown labels pass through whole.
    EXPECT_EQ(timelineSignature("gemm 100x27x64"), "gemm 100x27x64");
    EXPECT_EQ(timelineSignature("functional array"),
              "functional array");
}

TEST(AnalyzeTrace, OverlapMathMatchesHandComputation)
{
    // fill [0,10)+[10,15), compute [10,30): overlap is [10,15).
    const TraceAnalysis a =
        analyzeText(syntheticTrace({{0, 10}, {10, 5}}, {{10, 20}}));
    ASSERT_EQ(a.timelines.size(), 1u);
    const TimelineAnalysis &t = a.timelines[0];
    EXPECT_EQ(t.key, "conv 3x3 64->64 M=100");
    EXPECT_EQ(t.signature, "3x3 64->64");
    EXPECT_EQ(t.kind, "conv");
    EXPECT_EQ(t.style, "conv");
    EXPECT_EQ(t.fillCycles, 15.0);
    EXPECT_EQ(t.computeCycles, 20.0);
    EXPECT_EQ(t.overlapCycles, 5.0);
    EXPECT_EQ(t.exposedFillCycles, 10.0);
    EXPECT_EQ(t.spanCycles, 30.0);
    EXPECT_EQ(t.idleCycles, 0.0);
    EXPECT_DOUBLE_EQ(t.overlapRatio, 5.0 / 15.0);
    EXPECT_FALSE(t.fillBound); // compute 20 > fill 15
    EXPECT_EQ(t.fillSpans, 2u);
    EXPECT_EQ(t.computeSpans, 1u);
    // The run rollup over a single timeline is that timeline.
    EXPECT_EQ(a.criticalPath.timelines, 1u);
    EXPECT_EQ(a.criticalPath.spanCycles, 30.0);
    EXPECT_DOUBLE_EQ(a.criticalPath.overlapRatio, 5.0 / 15.0);
}

TEST(AnalyzeTrace, IdleGapsAndFillBoundedness)
{
    // fill [0,5), gap, compute [10,20): no overlap, 5 idle cycles.
    const TraceAnalysis a =
        analyzeText(syntheticTrace({{0, 5}}, {{10, 10}}));
    ASSERT_EQ(a.timelines.size(), 1u);
    const TimelineAnalysis &t = a.timelines[0];
    EXPECT_EQ(t.overlapCycles, 0.0);
    EXPECT_EQ(t.idleCycles, 5.0);
    EXPECT_EQ(t.spanCycles, 20.0);
    // The accounting identity holds exactly.
    EXPECT_EQ(t.spanCycles,
              t.computeCycles + t.exposedFillCycles + t.idleCycles);

    // A fill-dominated timeline is flagged memory-bound.
    const TraceAnalysis b =
        analyzeText(syntheticTrace({{0, 30}}, {{0, 10}}));
    ASSERT_EQ(b.timelines.size(), 1u);
    EXPECT_TRUE(b.timelines[0].fillBound);
}

TEST(AnalyzeTrace, CollapsesDuplicateTimelinesKeepsDistinctOnes)
{
    // Two identical replays of one layer (a concurrent memo-cache
    // miss) plus one genuinely different instance of the same label.
    const std::string label = "conv 1x1 8->8 M=64";
    std::string text = R"({"traceEvents": [)";
    const auto addPair = [&](int tidBase, double dur, bool first) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n  {\"name\": \"thread_name\", \"ph\": \"M\", "
            "\"pid\": 2, \"tid\": %d, \"args\": {\"name\": \"%s "
            "fill\"}},\n  {\"name\": \"thread_name\", \"ph\": \"M\", "
            "\"pid\": 2, \"tid\": %d, \"args\": {\"name\": \"%s "
            "compute\"}},\n  {\"name\": \"fill\", \"ph\": \"X\", "
            "\"pid\": 2, \"tid\": %d, \"ts\": 0, \"dur\": %g},\n  "
            "{\"name\": \"compute\", \"ph\": \"X\", \"pid\": 2, "
            "\"tid\": %d, \"ts\": %g, \"dur\": 10}",
            first ? "" : ",", tidBase, label.c_str(), tidBase + 1,
            label.c_str(), tidBase, dur, tidBase + 1, dur);
        text += buf;
    };
    addPair(1, 4.0, true);
    addPair(3, 4.0, false); // exact duplicate of the first
    addPair(5, 6.0, false); // distinct second instance
    text += "\n]}";

    const TraceAnalysis a = analyzeText(text);
    ASSERT_EQ(a.timelines.size(), 2u);
    EXPECT_EQ(a.timelines[0].key, label);
    EXPECT_EQ(a.timelines[0].instance, 0);
    EXPECT_EQ(a.timelines[1].instance, 1);
    // Signatures stay unique: the second instance is suffixed.
    EXPECT_EQ(a.timelines[0].signature, "1x1 8->8");
    EXPECT_EQ(a.timelines[1].signature, "1x1 8->8 #2");
    EXPECT_NE(a.timelines[0].fillCycles, a.timelines[1].fillCycles);
}

class RecordedTraceTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        trace::resetForTest();
        parallel::setThreads(0);
    }

    /** Run AlexNet on @p backend with the recorder armed and return
     *  the parsed trace. */
    TraceDocument
    record(const char *backend, const std::string &path, Index threads)
    {
        clearMemoCaches();
        if (threads > 0)
            parallel::setThreads(threads);
        trace::start(path);
        const auto accelerator = sim::makeAccelerator(backend);
        sim::ModelRunner(*accelerator).runModel(models::alexnet(8));
        EXPECT_TRUE(trace::stop());
        auto doc = parseTraceFile(path);
        EXPECT_TRUE(doc.ok()) << doc.status().toString();
        std::remove(path.c_str());
        return std::move(doc).value();
    }
};

TEST_F(RecordedTraceTest, TpuRoundTripHasConvTimelinesAndWallStats)
{
    const TraceDocument doc = record(
        "tpu-v2", ::testing::TempDir() + "cfconv_an_tpu.trace", 0);
    const TraceAnalysis a = analyzeTrace(doc);

    ASSERT_FALSE(a.timelines.empty());
    for (const auto &t : a.timelines) {
        EXPECT_EQ(t.kind, "conv") << t.key;
        EXPECT_EQ(t.style, "conv") << t.key;
        EXPECT_GT(t.spanCycles, 0.0) << t.key;
        // The accounting identity holds for every real timeline.
        EXPECT_DOUBLE_EQ(t.spanCycles, t.computeCycles +
                                           t.exposedFillCycles +
                                           t.idleCycles)
            << t.key;
        EXPECT_GE(t.overlapRatio, 0.0) << t.key;
        EXPECT_LE(t.overlapRatio, 1.0) << t.key;
    }
    const CriticalPathBreakdown &cp = a.criticalPath;
    EXPECT_EQ(cp.timelines, a.timelines.size());
    EXPECT_GT(cp.spanCycles, 0.0);
    EXPECT_NEAR(cp.computeFrac + cp.exposedFillFrac + cp.idleFrac, 1.0,
                1e-12);
    ASSERT_EQ(a.models.size(), 1u);
    EXPECT_EQ(a.models[0], "AlexNet");
    ASSERT_EQ(a.accelerators.size(), 1u);
    EXPECT_EQ(a.accelerators[0], "tpu-v2");
    // Stock backend: its channel-first lowering is stamped too.
    ASSERT_EQ(a.algorithms.size(), 1u);
    EXPECT_EQ(a.algorithms[0], "channel-first");
    ASSERT_EQ(a.variants.size(), 1u);
    EXPECT_EQ(a.variants[0], "tpu-v2");
    // A stock trace renders the same v3 document as a chaos trace,
    // with an all-zero resilience section, and a wall-clock trace
    // keeps its wall section.
    EXPECT_EQ(a.resilience.faults, 0u);
    EXPECT_EQ(a.resilience.failovers, 0u);
    const std::string json = analysisJson(a);
    EXPECT_NE(json.find("\"schema\": \"cfconv.trace_analysis\""),
              std::string::npos);
    EXPECT_NE(json.find("\"version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"chip_down_events\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"breakers\": []"), std::string::npos);
    EXPECT_NE(json.find("\"wall\": {"), std::string::npos);
    ASSERT_TRUE(a.hasWall);
    EXPECT_GT(a.wall.events, 0u);
    EXPECT_EQ(a.wall.modelSpans, 1u);
    EXPECT_GT(a.wall.layerSpans, 0u);
}

TEST_F(RecordedTraceTest, GpuRoundTripShowsFillHiddenUnderCompute)
{
    const TraceDocument doc = record(
        "gpu-v100", ::testing::TempDir() + "cfconv_an_gpu.trace", 0);
    const TraceAnalysis a = analyzeTrace(doc);

    ASSERT_FALSE(a.timelines.empty());
    double overlap = 0.0;
    for (const auto &t : a.timelines) {
        EXPECT_GT(t.fillCycles, 0.0) << t.key;
        overlap += t.overlapCycles;
    }
    // The GPU pipeline double-buffers smem fills under its k-steps'
    // MACs: some overlap must be visible or the analyzer is not seeing
    // it.
    EXPECT_GT(overlap, 0.0);
    EXPECT_GT(a.criticalPath.overlapRatio, 0.0);
}

TEST_F(RecordedTraceTest, ZooVariantTracesCarryAlgorithmStamps)
{
    const TraceDocument doc = record(
        "gpu-v100-indirect",
        ::testing::TempDir() + "cfconv_an_ind.trace", 0);
    const TraceAnalysis a = analyzeTrace(doc);

    // The satellite: zoo spans self-describe algorithm and variant.
    ASSERT_FALSE(a.algorithms.empty());
    EXPECT_EQ(a.algorithms[0], "indirect");
    ASSERT_FALSE(a.variants.empty());
    EXPECT_EQ(a.variants[0], "gpu-v100-indirect");
}

TEST_F(RecordedTraceTest, NonWallAnalysisIsByteIdenticalAcrossThreads)
{
    const std::string p1 =
        ::testing::TempDir() + "cfconv_an_t1.trace";
    const std::string p4 =
        ::testing::TempDir() + "cfconv_an_t4.trace";
    AnalyzeOptions noWall;
    noWall.includeWall = false;

    const TraceDocument d1 = record("tpu-v2", p1, 1);
    const std::string j1 = analysisJson(analyzeTrace(d1, noWall));
    const TraceDocument d4 = record("tpu-v2", p4, 4);
    const std::string j4 = analysisJson(analyzeTrace(d4, noWall));
    EXPECT_EQ(j1, j4);

    // Re-analyzing the same document reproduces every byte, wall
    // section included: the analyzer itself is deterministic.
    EXPECT_EQ(analysisJson(analyzeTrace(d4)),
              analysisJson(analyzeTrace(d4)));
}

TEST_F(RecordedTraceTest, ServingTraceYieldsChipOccupancyAndOutages)
{
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=3; serve.chip_down=0.25")
                    .ok());
    const std::string path =
        ::testing::TempDir() + "cfconv_an_serve.trace";
    trace::start(path);
    serve::ServingConfig config;
    config.chips = {{"tpu-v2"}, {"tpu-v2"}};
    serve::ServingSimulator sim(
        config, {{"alexnet", &models::alexnet, 1.0}});
    serve::TrafficSpec traffic;
    traffic.ratePerSecond = 400;
    traffic.horizonSeconds = 0.25;
    traffic.seed = 11;
    const serve::ServingResult result = sim.run(traffic);
    EXPECT_TRUE(trace::stop());
    ASSERT_TRUE(fault::FaultInjector::instance().configure("").ok());

    const auto doc = parseTraceFile(path);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    std::remove(path.c_str());
    const TraceAnalysis a = analyzeTrace(doc.value());

    ASSERT_EQ(a.chips.size(), 2u);
    for (const auto &chip : a.chips) {
        EXPECT_EQ(chip.run, 0);
        EXPECT_EQ(chip.variant, "tpu-v2");
        EXPECT_GE(chip.occupancy, 0.0);
        EXPECT_LE(chip.occupancy, 1.0);
        EXPECT_EQ(chip.makespanTicks, a.chips[0].makespanTicks);
    }
    EXPECT_EQ(a.chips[0].chip, 0);
    EXPECT_EQ(a.chips[1].chip, 1);
    // The chaos run actually downed chips, and the instants (the
    // chip_down satellite) surfaced them in the analysis.
    EXPECT_GT(result.chipDownEvents, 0);
    EXPECT_TRUE(a.hasResilience);
    EXPECT_EQ(a.resilience.chipDownEvents,
              static_cast<std::size_t>(result.chipDownEvents));
    EXPECT_EQ(a.resilience.chipDownEvents,
              a.chips[0].outages + a.chips[1].outages);
}

TEST_F(RecordedTraceTest, ResilientServingTraceYieldsBreakerTimeline)
{
    ASSERT_TRUE(
        fault::FaultInjector::instance()
            .configure("seed=42; serve.chip_down@gpu-v100=0.6")
            .ok());
    const std::string path =
        ::testing::TempDir() + "cfconv_an_resilient.trace";
    trace::start(path);
    serve::ServingConfig config;
    config.chips = {{"gpu-v100"}, {"tpu-v2"}, {"tpu-v2"}};
    config.breaker.enabled = true;
    config.breaker.failureThreshold = 2;
    config.breaker.openSeconds = 50e-3;
    config.degradation.enabled = true;
    config.degradation.stepUpPressure = 1.5;
    config.degradation.stepUpAfterSeconds = 2e-3;
    serve::ServingSimulator sim(
        config, {{"alexnet", &models::alexnet, 1.0}});
    serve::TrafficSpec traffic;
    traffic.ratePerSecond = 400;
    traffic.horizonSeconds = 0.25;
    traffic.seed = 11;
    const serve::ServingResult result = sim.run(traffic);
    EXPECT_TRUE(trace::stop());
    ASSERT_TRUE(fault::FaultInjector::instance().configure("").ok());

    const auto doc = parseTraceFile(path);
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    std::remove(path.c_str());
    const TraceAnalysis a = analyzeTrace(doc.value());

    // The breaker instants land on the flaky chip's track and the
    // per-chip tallies reconcile with the simulator's own counters.
    ASSERT_GT(result.breakerTrips, 0);
    ASSERT_TRUE(a.hasServingResilience);
    std::size_t trips = 0, probes = 0, closes = 0;
    for (const auto &chip : a.serving.chips) {
        trips += chip.trips;
        probes += chip.probes;
        closes += chip.closes;
        EXPECT_FALSE(chip.timeline.empty());
        for (const auto &event : chip.timeline) {
            EXPECT_TRUE(event.state == "open" ||
                        event.state == "probe" ||
                        event.state == "closed")
                << event.state;
        }
    }
    EXPECT_EQ(trips, static_cast<std::size_t>(result.breakerTrips));
    EXPECT_EQ(probes, static_cast<std::size_t>(result.breakerProbes));
    EXPECT_EQ(closes, static_cast<std::size_t>(result.breakerCloses));
    EXPECT_EQ(a.serving.hedgeWins + a.serving.hedgeLosses,
              static_cast<std::size_t>(result.hedgeWins +
                                       result.hedgeLosses));

    // The degradation track produced an occupancy row whose ticks sum
    // to the run's makespan.
    ASSERT_EQ(a.serving.degradation.size(), 1u);
    const auto &occupancy = a.serving.degradation[0];
    EXPECT_EQ(occupancy.transitions,
              static_cast<std::size_t>(result.degradeTransitions));
    EXPECT_EQ(occupancy.maxStep, result.degradeStepMax);
    const double totalTicks =
        occupancy.stepTicks[0] + occupancy.stepTicks[1] +
        occupancy.stepTicks[2] + occupancy.stepTicks[3];
    EXPECT_GT(totalTicks, 0.0);

    // The serving-resilience section shows up in both the JSON and
    // the headline.
    const std::string json = analysisJson(a);
    EXPECT_NE(json.find("\"version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"serving\""), std::string::npos);
    EXPECT_NE(json.find("\"breakers\""), std::string::npos);
    EXPECT_NE(json.find("\"degradation\""), std::string::npos);
    EXPECT_NE(analysisHeadline("resilient", a).find("breaker_trips="),
              std::string::npos);
}

} // namespace
} // namespace cfconv::analyze
