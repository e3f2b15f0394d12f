/**
 * @file
 * Quickstart: the cfconv public API in one file.
 *
 * 1. Describe a convolution layer (ConvParams).
 * 2. Execute it functionally with the implicit channel-first engine and
 *    check it against direct convolution.
 * 3. Estimate its performance on a TPU-v2 core (TPUSim) and a V100
 *    (GpuSim).
 */

#include <cstdio>

#include "conv/algorithm.h"
#include "gpusim/gpu_sim.h"
#include "tensor/conv_ref.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main()
{
    // A ResNet-style layer: batch 8, 64 -> 64 channels, 56x56, 3x3.
    const tensor::ConvParams layer =
        tensor::makeConv(/*batch=*/8, /*in_channels=*/64, /*in_hw=*/56,
                         /*out_channels=*/64, /*kernel=*/3,
                         /*stride=*/1, /*pad=*/1);
    std::printf("Layer: %s\n", layer.toString().c_str());
    std::printf("GEMM view: M=%lld K=%lld N=%lld (%.2f GFLOPs)\n",
                (long long)layer.gemmM(), (long long)layer.gemmK(),
                (long long)layer.gemmN(),
                static_cast<double>(layer.flops()) / 1e9);

    // --- functional execution -------------------------------------
    tensor::Tensor input = tensor::makeInput(layer);
    tensor::Tensor filter = tensor::makeFilter(layer);
    input.fillRandom(1);
    filter.fillRandom(2);

    const conv::Algorithm *channel_first =
        conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    const tensor::Tensor out = channel_first->execute(layer, input, filter);
    const tensor::Tensor ref = tensor::convDirect(layer, input, filter);
    // A 128-row array merges T = MIN(128 / C_I, W_F) taps per pass.
    const size_t passes =
        channel_first->plan(layer)
            ->passes(128, im2col::tpuMultiTileParam(128, layer))
            .size();
    std::printf("\nImplicit channel-first vs direct conv: max |diff| = "
                "%.2e (multi-tile GEMM passes: %zu)\n",
                static_cast<double>(out.maxAbsDiff(ref)), passes);

    // --- TPU-v2 performance estimate ------------------------------
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));
    const tpusim::TpuLayerResult t = tpu.runConv(layer);
    std::printf("\nTPU-v2 (one core): %.1f us, %.1f TFLOPS, array "
                "utilization %.0f%%, multi-tile=%lld\n",
                t.seconds * 1e6, t.tflops,
                100.0 * t.tflops / tpu.config().peakTflops(),
                (long long)t.multiTile);

    // --- V100 performance estimate --------------------------------
    gpusim::GpuSim gpu((gpusim::GpuConfig::v100()));
    const gpusim::GpuKernelResult g = gpu.runConv(layer);
    std::printf("V100 (channel-first): %.1f us, %.1f TFLOPS, %s-bound\n",
                g.seconds * 1e6, g.tflops,
                g.breakdown.memoryBound() ? "memory" : "compute");
    return 0;
}
