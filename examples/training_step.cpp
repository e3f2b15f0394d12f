/**
 * @file
 * Training-step example: run the forward pass, backward-data, and
 * backward-filter of a convolution with the channel-first decomposed
 * schedule, verify the gradients against direct references, and
 * estimate the cost of all three passes on a TPU-v2 core.
 */

#include <cstdio>

#include "conv/algorithm.h"
#include "im2col/conv_backward.h"
#include "tensor/conv_ref.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main()
{
    const tensor::ConvParams layer =
        tensor::makeConv(/*batch=*/4, /*C_I=*/32, /*hw=*/28,
                         /*C_O=*/64, /*k=*/3, /*stride=*/1, /*pad=*/1);
    std::printf("Training step for %s\n", layer.toString().c_str());

    tensor::Tensor input = tensor::makeInput(layer);
    tensor::Tensor filter = tensor::makeFilter(layer);
    input.fillRandom(1);
    filter.fillRandom(2);

    // Forward.
    const tensor::Tensor out =
        conv::findAlgorithm(conv::AlgorithmId::ChannelFirst)
            ->execute(layer, input, filter);
    std::printf("forward:          max |diff| vs direct = %.2e\n",
                static_cast<double>(out.maxAbsDiff(
                    tensor::convDirect(layer, input, filter))));

    // Upstream gradient (pretend loss).
    tensor::Tensor grad_out(layer.batch, layer.outChannels,
                            layer.outH(), layer.outW());
    grad_out.fillRandom(3);

    // Backward passes with the decomposed schedule.
    const tensor::Tensor grad_in =
        im2col::convBackwardDataImplicit(layer, grad_out, filter);
    const tensor::Tensor grad_w =
        im2col::convBackwardFilterImplicit(layer, input, grad_out);
    std::printf("backward-data:    max |diff| vs direct = %.2e\n",
                static_cast<double>(grad_in.maxAbsDiff(
                    im2col::convBackwardDataDirect(layer, grad_out,
                                                   filter))));
    std::printf("backward-filter:  max |diff| vs direct = %.2e\n",
                static_cast<double>(grad_w.maxAbsDiff(
                    im2col::convBackwardFilterDirect(layer, input,
                                                     grad_out))));

    // Cost estimate: each pass is a set of decomposed GEMMs with the
    // same shapes (M x C_I x C_O per tile, transposed operands for the
    // gradients), so the forward TPU estimate applies to all three.
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    const auto fwd = sim.runConv(layer);
    const auto dgrad = sim.runGemm(layer.gemmM(), layer.gemmN(),
                                   layer.gemmK());
    const auto wgrad = sim.runGemm(layer.gemmK(), layer.gemmM(),
                                   layer.gemmN());
    std::printf("\nTPU-v2 estimates: forward %.1f us, backward-data "
                "%.1f us, backward-filter %.1f us\n",
                fwd.seconds * 1e6, dgrad.seconds * 1e6,
                wgrad.seconds * 1e6);
    std::printf("Full training step (fwd + both bwd): %.1f us\n",
                (fwd.seconds + dgrad.seconds + wgrad.seconds) * 1e6);
    return 0;
}
