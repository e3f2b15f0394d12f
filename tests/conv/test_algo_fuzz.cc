/** @file Seeded random-layer fuzz of the one execute(): on layers drawn
 *  from every combination of batch, channels, rectangular kernels,
 *  per-axis stride, padding and dilation the awkward-shape zoo does not
 *  list, each algorithm stays within float tolerance of convDirect,
 *  explicit im2col returns channel-last's bytes (its only difference is
 *  the workspace), and the per-tap schemes return one set of bytes. */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "conv/algorithm.h"
#include "tensor/conv_ref.h"
#include "tensor/tensor.h"

#include "../common/determinism.h"

namespace cfconv::conv {
namespace {

using tensor::ConvParams;
using tensor::Tensor;

/** @p count seeded random layers that pass tensor::checkLayer, small
 *  enough that a direct convolution of each is quick. */
std::vector<ConvParams>
randomValidLayers(std::uint64_t seed, int count)
{
    Rng rng(seed);
    const auto pick = [&rng](Index lo, Index hi) {
        return lo + static_cast<Index>(
                        rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    std::vector<ConvParams> layers;
    while (static_cast<int>(layers.size()) < count) {
        ConvParams p;
        p.batch = pick(1, 2);
        p.inChannels = pick(1, 12);
        p.inH = pick(1, 14);
        p.inW = pick(1, 14);
        p.outChannels = pick(1, 12);
        p.kernelH = pick(1, 5);
        p.kernelW = pick(1, 5);
        p.padH = pick(0, 2);
        p.padW = pick(0, 2);
        // Half the layers keep unit stride and dilation, so SMM-Conv
        // runs some too.
        if (rng.below(2) == 0) {
            p.strideH = pick(1, 3);
            p.strideW = pick(1, 3);
            p.dilationH = pick(1, 2);
            p.dilationW = pick(1, 2);
        }
        if (tensor::checkLayer(p).ok())
            layers.push_back(p);
    }
    return layers;
}

/** Calls @p fn(p, input, filter) on each random layer with seeded
 *  operands. */
template <typename Fn>
void
forEachRandomLayer(std::uint64_t seed, Fn &&fn)
{
    for (const ConvParams &p : randomValidLayers(seed, 40)) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p);
        input.fillRandom(seed + 1);
        filter.fillRandom(seed + 2);
        fn(p, input, filter);
    }
}

TEST(AlgoFuzz, RandomLayersMatchConvDirect)
{
    forEachRandomLayer(211, [](const ConvParams &p, const Tensor &input,
                               const Tensor &filter) {
        const Tensor ref = tensor::convDirect(p, input, filter);
        for (const Algorithm *algo : allAlgorithms()) {
            if (!algo->supports(p, 1).ok()) {
                EXPECT_EQ(algo->id(), AlgorithmId::Smm)
                    << algo->name() << " refused " << p.toString();
                continue;
            }
            EXPECT_LT(algo->execute(p, input, filter).maxAbsDiff(ref), 1e-3f)
                << algo->name() << " on " << p.toString();
        }
    });
}

TEST(AlgoFuzz, ExplicitReturnsTheChannelLastBytes)
{
    // Same column order, same packed B, same kernel: the workspace is
    // the only difference, so not one output byte may differ.
    forEachRandomLayer(223, [](const ConvParams &p, const Tensor &input,
                               const Tensor &filter) {
        for (const Index n : {1, 4}) {
            ScopedThreads st(n);
            EXPECT_TRUE(sameBytes(
                findAlgorithm(AlgorithmId::ChannelLast)
                    ->execute(p, input, filter),
                findAlgorithm(AlgorithmId::ExplicitIm2col)
                    ->execute(p, input, filter)))
                << p.toString() << " at " << n << " threads";
        }
    });
}

TEST(AlgoFuzz, PerTapSchemesReturnOneSetOfBytes)
{
    forEachRandomLayer(227, [](const ConvParams &p, const Tensor &input,
                               const Tensor &filter) {
        const Tensor channel_first =
            findAlgorithm(AlgorithmId::ChannelFirst)
                ->execute(p, input, filter);
        for (const AlgorithmId id : {AlgorithmId::Indirect, AlgorithmId::Smm}) {
            const Algorithm *algo = findAlgorithm(id);
            if (!algo->supports(p, 1).ok())
                continue;
            EXPECT_TRUE(
                sameBytes(channel_first, algo->execute(p, input, filter)))
                << algo->name() << " on " << p.toString();
        }
    });
}

} // namespace
} // namespace cfconv::conv
