/** @file Tests for MobileNetV1 and grouped layer specs in the zoo. */

#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::models {
namespace {

TEST(MobileNet, LayerStructure)
{
    const ModelSpec m = mobilenetv1(1);
    // 1 stem + 13 dw + 13 pw blocks = 27 layer specs (with counts:
    // 1 + 2*9 entries, instances 1 + 13 + 13 = 27).
    EXPECT_EQ(m.layerInstances(), 27);
    // Depthwise layers carry groups = C_I; pointwise carry groups = 1.
    Index dw = 0, pw = 0;
    for (const auto &l : m.layers) {
        if (l.groups > 1) {
            EXPECT_EQ(l.groups, l.params.inChannels) << l.name;
            EXPECT_EQ(l.params.kernelH, 3) << l.name;
            ++dw;
        } else if (l.params.kernelH == 1) {
            ++pw;
        }
    }
    EXPECT_GT(dw, 0);
    EXPECT_GT(pw, 0);
}

TEST(MobileNet, FlopsMatchPublishedScale)
{
    // MobileNetV1 1.0x: ~1.1 GFLOPs (2 flops/MAC) of convolution at
    // batch 1.
    const double gflops =
        static_cast<double>(mobilenetv1(1).totalFlops()) / 1e9;
    EXPECT_NEAR(gflops, 1.1, 0.25);
}

TEST(MobileNet, GroupedFlopsAreSliceScaled)
{
    const ModelSpec m = mobilenetv1(1);
    for (const auto &l : m.layers) {
        if (l.groups > 1) {
            EXPECT_EQ(l.flops(),
                      tensor::groupSlice(l.params, l.groups).flops() *
                          static_cast<Flops>(l.groups))
                << l.name;
        } else {
            EXPECT_EQ(l.flops(), l.params.flops());
        }
    }
}

TEST(MobileNet, DimensionsChainThroughTheNetwork)
{
    const ModelSpec m = mobilenetv1(1);
    for (size_t i = 1; i < m.layers.size(); ++i) {
        const auto &prev = m.layers[i - 1].params;
        const auto &cur = m.layers[i].params;
        EXPECT_EQ(cur.inChannels, prev.outChannels)
            << m.layers[i].name;
        EXPECT_EQ(cur.inH, prev.outH()) << m.layers[i].name;
    }
}

TEST(MobileNet, RunsOnBothSimulators)
{
    const ModelSpec m = mobilenetv1(8);
    const auto tpu = sim::makeAccelerator("tpu-v2");
    const auto gpu = sim::makeAccelerator("gpu-v100");
    const sim::RunRecord tr = sim::ModelRunner(*tpu).runModel(m);
    const sim::RunRecord gr = sim::ModelRunner(*gpu).runModel(m);
    EXPECT_GT(tr.seconds, 0.0);
    EXPECT_GT(gr.seconds, 0.0);
    // Depthwise layers wreck systolic occupancy: effective TFLOPS is a
    // small fraction of peak -- the documented occupancy cliff.
    EXPECT_LT(tr.tflops, 0.25 * tpu->peakTflops());
}

TEST(MobileNet, DepthwiseDominatesTpuTimeDespiteTinyFlops)
{
    const ModelSpec m = mobilenetv1(8);
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));
    double dw_seconds = 0.0, pw_seconds = 0.0;
    Flops dw_flops = 0, pw_flops = 0;
    for (const auto &l : m.layers) {
        const auto r = tpu.runGroupedConv(l.params, l.groups);
        const double secs =
            r.seconds * static_cast<double>(l.count);
        if (l.groups > 1) {
            dw_seconds += secs;
            dw_flops += l.flops() * static_cast<Flops>(l.count);
        } else {
            pw_seconds += secs;
            pw_flops += l.flops() * static_cast<Flops>(l.count);
        }
    }
    // Depthwise is ~3% of the FLOPs but the majority of the time.
    EXPECT_LT(static_cast<double>(dw_flops),
              0.15 * static_cast<double>(pw_flops));
    EXPECT_GT(dw_seconds, pw_seconds);
}

} // namespace
} // namespace cfconv::models
