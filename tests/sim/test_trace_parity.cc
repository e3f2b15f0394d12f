/** @file Tracing must be an observer: a run with the Chrome-trace
 *  recorder armed must produce bit-identical RunRecords to an untraced
 *  run. Traced and untraced runs share memo-cache entries, so the
 *  traced run clears the caches and recomputes: any numeric drift
 *  between the traced and untraced code paths fails here. And the
 *  timeline a traced run draws is the one schedule that timed each
 *  layer, drawn once: a TPU layer that delegates (explicit im2col's
 *  GEMM, the space-to-depth stem's rewritten layer) draws one
 *  fill/compute pair, and a memo-cache hit draws nothing on either
 *  backend. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analyze/trace_model.h"
#include "common/trace.h"
#include "gpusim/gpu_sim.h"
#include "gpusim/kernel_cache.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "tensor/space_to_depth.h"
#include "tpusim/layer_cache.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::sim {
namespace {

void
expectBitIdentical(const RunRecord &a, const RunRecord &b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.batch, b.batch);
    // Bit-exact, not approximately equal: tracing may not perturb a
    // single ulp of the simulated numbers.
    EXPECT_EQ(a.peakTflops, b.peakTflops);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.tflops, b.tflops);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const LayerRecord &la = a.layers[i];
        const LayerRecord &lb = b.layers[i];
        EXPECT_EQ(la.name, lb.name);
        EXPECT_EQ(la.geometry, lb.geometry);
        EXPECT_EQ(la.count, lb.count);
        EXPECT_EQ(la.groups, lb.groups);
        EXPECT_EQ(la.seconds, lb.seconds) << la.name;
        EXPECT_EQ(la.tflops, lb.tflops) << la.name;
        EXPECT_EQ(la.utilization, lb.utilization) << la.name;
        EXPECT_EQ(la.dramBytes, lb.dramBytes) << la.name;
        EXPECT_EQ(la.flops, lb.flops) << la.name;
        EXPECT_EQ(la.extras, lb.extras) << la.name;
    }
}

void
clearMemoCaches()
{
    tpusim::LayerCache::instance().clear();
    gpusim::KernelCache::instance().clear();
}

class TraceParityTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void TearDown() override { trace::resetForTest(); }
};

TEST_P(TraceParityTest, TracedRunMatchesUntracedBitExactly)
{
    const auto accelerator = makeAccelerator(GetParam());
    const auto model = models::alexnet(8);

    clearMemoCaches();
    ASSERT_FALSE(trace::enabled());
    const RunRecord untraced =
        ModelRunner(*accelerator).runModel(model);

    // Clear the memo caches so the traced run actually recomputes
    // instead of replaying the untraced results.
    clearMemoCaches();
    const std::string path =
        ::testing::TempDir() + "cfconv_parity_" + GetParam() + ".json";
    trace::start(path);
    const RunRecord traced = ModelRunner(*accelerator).runModel(model);
    // The comparison only means something if the traced run actually
    // recorded events on this backend.
    EXPECT_GT(trace::bufferedEventCountForTest(), 0u);
    ASSERT_TRUE(trace::stop());

    expectBitIdentical(untraced, traced);
    std::remove(path.c_str());
}

/** The simulated-cycles rows @p run draws, traced on cold caches. */
template <typename Fn>
std::vector<std::string>
drawnRows(const std::string &name, Fn &&run)
{
    clearMemoCaches();
    const std::string path =
        ::testing::TempDir() + "cfconv_rows_" + name + ".json";
    trace::start(path);
    run();
    EXPECT_TRUE(trace::stop());
    const auto doc = analyze::parseTraceFile(path);
    std::remove(path.c_str());
    EXPECT_TRUE(doc.ok()) << doc.status().toString();
    std::vector<std::string> rows;
    if (doc.ok())
        for (const auto &[pid_tid, label] : doc->trackNames)
            if (pid_tid.first == analyze::kSimPid)
                rows.push_back(label);
    return rows;
}

class DrawnTimelineTest : public ::testing::Test
{
  protected:
    void TearDown() override { trace::resetForTest(); }
};

TEST_F(DrawnTimelineTest, DelegatingTpuLayersDrawOnePairOnce)
{
    const tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));

    // Explicit im2col times the GEMM over its lowered matrix; the
    // second run of the layer is a memo-cache hit.
    const ConvParams layer = tensor::makeConv(8, 64, 56, 64, 3, 1, 1);
    tpusim::TpuRunOptions explicit_im2col;
    explicit_im2col.algorithm = conv::AlgorithmId::ExplicitIm2col;
    EXPECT_EQ(drawnRows("explicit",
                        [&] {
                            sim.runConv(layer, explicit_im2col);
                            sim.runConv(layer, explicit_im2col);
                        }),
              (std::vector<std::string>{"gemm 25088x576x64 fill",
                                        "gemm 25088x576x64 compute"}));

    // The stem times its space-to-depth rewrite.
    const ConvParams stem = tensor::makeConv(8, 3, 224, 64, 7, 2, 3);
    tpusim::TpuRunOptions s2d;
    s2d.spaceToDepthFirstLayer = true;
    const std::string rewritten =
        "conv 4x4 12->64 M=" +
        std::to_string(tensor::spaceToDepthParams(stem, 2).gemmM());
    EXPECT_EQ(drawnRows("s2d", [&] { sim.runConv(stem, s2d); }),
              (std::vector<std::string>{rewritten + " fill",
                                        rewritten + " compute"}));
}

TEST_F(DrawnTimelineTest, GpuCacheHitsDrawNothing)
{
    const gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
    const ConvParams layer = tensor::makeConv(8, 64, 56, 64, 3, 1, 1);
    EXPECT_EQ(drawnRows("gpu",
                        [&] {
                            sim.runConv(layer);
                            sim.runConv(layer);
                        }),
              (std::vector<std::string>{"cf-conv+reuse 3x3 64->64 fill",
                                        "cf-conv+reuse 3x3 64->64 compute"}));
}

INSTANTIATE_TEST_SUITE_P(Backends, TraceParityTest,
                         ::testing::Values("tpu-v2", "gpu-v100"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

} // namespace
} // namespace cfconv::sim
