/** @file Cross-module integration tests: training convergence, model
 *  zoo consistency, simulator agreement, combined-feature paths. */

#include <gtest/gtest.h>

#include "conv/algorithm.h"
#include "gpusim/gpu_sim.h"
#include "im2col/conv_backward.h"
#include "im2col/reorder.h"
#include "im2col/sparse.h"
#include "models/model_zoo.h"
#include "tensor/conv_ref.h"
#include "tpusim/functional_core.h"
#include "tpusim/tpu_sim.h"

namespace cfconv {
namespace {

using tensor::ConvParams;
using tensor::makeConv;
using tensor::Tensor;

/** The host engine's channel-first convolution. */
Tensor
convImplicit(const ConvParams &p, const Tensor &input, const Tensor &filter)
{
    return conv::findAlgorithm(conv::AlgorithmId::ChannelFirst)
        ->execute(p, input, filter);
}

float
mseLoss(const Tensor &a, const Tensor &b)
{
    float total = 0.0f;
    for (Index i = 0; i < a.size(); ++i) {
        const float d = a.data()[i] - b.data()[i];
        total += d * d;
    }
    return total / static_cast<float>(a.size());
}

TEST(Integration, GradientStepReducesLoss)
{
    // One SGD step with the decomposed backward-filter gradient must
    // reduce an MSE regression loss: forward + backward + update,
    // end to end.
    const ConvParams p = makeConv(2, 3, 8, 4, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    Tensor target(p.batch, p.outChannels, p.outH(), p.outW());
    Tensor filter = tensor::makeFilter(p);
    input.fillRandom(301);
    target.fillRandom(302);
    filter.fillRandom(303);

    const Tensor y0 = convImplicit(p, input, filter);
    const float loss0 = mseLoss(y0, target);

    // dL/dY = 2 (Y - T) / numel.
    Tensor grad_out(p.batch, p.outChannels, p.outH(), p.outW());
    for (Index i = 0; i < grad_out.size(); ++i)
        grad_out.data()[i] = 2.0f * (y0.data()[i] - target.data()[i]) /
                             static_cast<float>(y0.size());
    const Tensor grad_w =
        im2col::convBackwardFilterImplicit(p, input, grad_out);

    const float lr = 0.1f;
    for (Index i = 0; i < filter.size(); ++i)
        filter.data()[i] -= lr * grad_w.data()[i];

    const float loss1 = mseLoss(convImplicit(p, input, filter), target);
    EXPECT_LT(loss1, loss0);
}

TEST(Integration, TenGradientStepsKeepImproving)
{
    const ConvParams p = makeConv(1, 2, 6, 2, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    input.fillRandom(311);
    // The target is realizable: produced by a hidden "true" filter.
    Tensor true_filter = tensor::makeFilter(p);
    true_filter.fillRandom(313);
    const Tensor target = tensor::convDirect(p, input, true_filter);

    Tensor filter = tensor::makeFilter(p);
    filter.fillRandom(317);
    float prev = mseLoss(convImplicit(p, input, filter), target);
    const float initial = prev;
    for (int step = 0; step < 10; ++step) {
        const Tensor y = convImplicit(p, input, filter);
        Tensor grad_out(p.batch, p.outChannels, p.outH(), p.outW());
        for (Index i = 0; i < grad_out.size(); ++i)
            grad_out.data()[i] = 2.0f *
                                 (y.data()[i] - target.data()[i]) /
                                 static_cast<float>(y.size());
        const Tensor grad_w =
            im2col::convBackwardFilterImplicit(p, input, grad_out);
        for (Index i = 0; i < filter.size(); ++i)
            filter.data()[i] -= 0.5f * grad_w.data()[i];
        const float loss = mseLoss(convImplicit(p, input, filter),
                                   target);
        EXPECT_LE(loss, prev * 1.001f) << "step " << step;
        prev = loss;
    }
    EXPECT_LT(prev, 0.5f * initial);
}

TEST(Integration, ModelZooLayersRunOnBothSimulators)
{
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));
    gpusim::GpuSim gpu((gpusim::GpuConfig::v100()));
    for (const auto &model : models::allModels(8)) {
        double tpu_s = 0.0, gpu_s = 0.0;
        for (const auto &layer : model.layers) {
            const auto tr = tpu.runConv(layer.params);
            const auto gr = gpu.runConv(layer.params);
            ASSERT_GT(tr.seconds, 0.0) << model.name;
            ASSERT_GT(gr.seconds, 0.0) << model.name;
            ASSERT_LE(tr.tflops,
                      tpu.config().peakTflops() * 1.001);
            ASSERT_LE(gr.tflops,
                      gpu.config().peakTflops() * 1.001);
            tpu_s += tr.seconds;
            gpu_s += gr.seconds;
        }
        // The V100 has ~5.5x the TPU core's peak: whole models must
        // land in a sane relative band.
        EXPECT_LT(gpu_s, tpu_s) << model.name;
        EXPECT_GT(gpu_s, tpu_s / 40.0) << model.name;
    }
}

TEST(Integration, VggPipelineDimensionsChain)
{
    // VGG is a straight pipeline with 2x2 pooling between stages: each
    // conv's input channels equal the previous conv's output channels,
    // and spatial sizes only ever halve.
    const auto vgg = models::vgg16(1);
    for (size_t i = 1; i < vgg.layers.size(); ++i) {
        const auto &prev = vgg.layers[i - 1].params;
        const auto &cur = vgg.layers[i].params;
        EXPECT_EQ(cur.inChannels, prev.outChannels)
            << vgg.layers[i].name;
        EXPECT_TRUE(cur.inH == prev.outH() ||
                    cur.inH == prev.outH() / 2)
            << vgg.layers[i].name;
    }
}

TEST(Integration, SparseMultiTileReorderedConvIsCorrect)
{
    // Pile every feature onto one convolution: tile-pruned filter,
    // multi-tile grouping, reuse-greedy order, on the functional TPU
    // core with the TPU strategy's T for its 16 rows.
    const ConvParams p = makeConv(2, 4, 9, 4, 3, 2, 1);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    input.fillRandom(331);
    filter.fillRandom(337);
    const Tensor pruned = im2col::pruneFilterTiles(p, filter, 3.0 / 9.0);

    tpusim::FunctionalTpuCore core(16, 4, 2);
    const Tensor fancy =
        core.runConv(*conv::findAlgorithm(conv::AlgorithmId::ChannelFirst),
                     im2col::channelFirstPlan(
                         p, im2col::orderTiles(
                                p, im2col::TileOrder::ReuseGreedy)),
                     p, input, pruned, im2col::tpuMultiTileParam(16, p))
            .output;
    const Tensor plain = tensor::convDirect(p, input, pruned);
    EXPECT_LT(fancy.maxAbsDiff(plain), 1e-3f);
}

TEST(Integration, StridedAdvantageHoldsAcrossTheModelZoo)
{
    // Fig 18a at zoo scale: on every stride>1 layer with C_I >= 16,
    // the channel-first kernel matches or beats the channel-last one.
    gpusim::GpuSim gpu((gpusim::GpuConfig::v100()));
    gpusim::GpuRunOptions cf, cl;
    cf.algorithm = conv::AlgorithmId::ChannelFirst;
    cl.algorithm = conv::AlgorithmId::ChannelLast;
    for (const auto &layer : models::stridedLayers(8)) {
        if (layer.params.inChannels < 16)
            continue;
        EXPECT_LE(gpu.runConv(layer.params, cf).seconds,
                  gpu.runConv(layer.params, cl).seconds * 1.001)
            << layer.name;
    }
}

} // namespace
} // namespace cfconv
