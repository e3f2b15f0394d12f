/** @file Seeded random-layer fuzz of the one execute(): on layers drawn
 *  from every combination of batch, channels, group count (depthwise
 *  included), rectangular kernels, per-axis stride, padding and
 *  dilation the awkward-shape zoo does not list, each algorithm stays
 *  within float tolerance of convDirect, explicit im2col returns
 *  channel-last's bytes (its only difference is the workspace), the
 *  per-tap schemes return one set of bytes, and supports() refuses a
 *  bad group count by name. */

#include <gtest/gtest.h>

#include <string>
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

/** A random layer and the group count it runs with. */
struct FuzzLayer
{
    ConvParams params;
    Index groups = 1;
};

/** @p count seeded random layers that pass tensor::checkLayer with
 *  their group count, small enough that a direct convolution of each is
 *  quick. */
std::vector<FuzzLayer>
randomValidLayers(std::uint64_t seed, int count)
{
    Rng rng(seed);
    const auto pick = [&rng](Index lo, Index hi) {
        return lo + static_cast<Index>(
                        rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    std::vector<FuzzLayer> layers;
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
        // A third of the layers are grouped: G groups of C_I/G and
        // C_O/G channels, depthwise when C_I/G is 1.
        Index groups = 1;
        if (rng.below(3) == 0) {
            groups = pick(2, 6);
            p.inChannels = groups * pick(1, 3);
            p.outChannels = groups * pick(1, 3);
        }
        if (tensor::checkLayer(p, groups).ok())
            layers.push_back({p, groups});
    }
    return layers;
}

/** Calls @p fn(p, groups, input, filter) on each random layer with
 *  seeded operands. */
template <typename Fn>
void
forEachRandomLayer(std::uint64_t seed, Fn &&fn)
{
    for (const auto &[p, groups] : randomValidLayers(seed, 40)) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p, groups);
        input.fillRandom(seed + 1);
        filter.fillRandom(seed + 2);
        fn(p, groups, input, filter);
    }
}

TEST(AlgoFuzz, RandomLayersMatchConvDirect)
{
    forEachRandomLayer(211, [](const ConvParams &p, Index groups,
                               const Tensor &input, const Tensor &filter) {
        const Tensor ref = tensor::convDirect(p, input, filter, groups);
        for (const Algorithm *algo : allAlgorithms()) {
            // No group count outside [1, C_I] divides C_I.
            for (const Index bad : {Index{0}, p.inChannels + 1}) {
                const Status refused = algo->supports(p, bad);
                EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
                    << algo->name() << " took groups = " << bad << " on "
                    << p.toString();
                EXPECT_NE(refused.message().find("groups = "),
                          std::string::npos)
                    << refused.message();
            }
            if (!algo->supports(p, groups).ok()) {
                EXPECT_EQ(algo->id(), AlgorithmId::Smm)
                    << algo->name() << " refused " << p.toString();
                continue;
            }
            EXPECT_LT(algo->execute(p, input, filter, groups).maxAbsDiff(ref),
                      1e-3f)
                << algo->name() << " on " << p.toString() << " G=" << groups;
        }
    });
}

TEST(AlgoFuzz, ExplicitReturnsTheChannelLastBytes)
{
    // Same column order, same packed B, same kernel: the workspace is
    // the only difference, so not one output byte may differ.
    forEachRandomLayer(223, [](const ConvParams &p, Index groups,
                               const Tensor &input, const Tensor &filter) {
        for (const Index n : {1, 4}) {
            ScopedThreads st(n);
            EXPECT_TRUE(sameBytes(
                findAlgorithm(AlgorithmId::ChannelLast)
                    ->execute(p, input, filter, groups),
                findAlgorithm(AlgorithmId::ExplicitIm2col)
                    ->execute(p, input, filter, groups)))
                << p.toString() << " G=" << groups << " at " << n
                << " threads";
        }
    });
}

TEST(AlgoFuzz, PerTapSchemesReturnOneSetOfBytes)
{
    forEachRandomLayer(227, [](const ConvParams &p, Index groups,
                               const Tensor &input, const Tensor &filter) {
        const Tensor channel_first =
            findAlgorithm(AlgorithmId::ChannelFirst)
                ->execute(p, input, filter, groups);
        for (const AlgorithmId id : {AlgorithmId::Indirect, AlgorithmId::Smm}) {
            const Algorithm *algo = findAlgorithm(id);
            if (!algo->supports(p, groups).ok())
                continue;
            EXPECT_TRUE(sameBytes(channel_first,
                                  algo->execute(p, input, filter, groups)))
                << algo->name() << " on " << p.toString() << " G=" << groups;
        }
    });
}

} // namespace
} // namespace cfconv::conv
