/** @file Functional TPU core tests: Fig 10's dataflow, exactly, on
 *  every registered algorithm's plan. */

#include <gtest/gtest.h>

#include "conv/algorithm.h"
#include "tensor/conv_ref.h"
#include "tpusim/functional_core.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;
using tensor::makeFilter;
using tensor::makeInput;

/** Channel-first's plan on @p core, @p tiles taps merged per pass. */
FunctionalRunResult
runChannelFirst(FunctionalTpuCore &core, const ConvParams &p,
                const Tensor &input, const Tensor &filter, Index tiles)
{
    const conv::Algorithm &algo =
        *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    return core.runConv(algo, *algo.plan(p), p, input, filter, tiles);
}

TEST(FunctionalCore, Fig10Configuration)
{
    // Fig 10: N = 2, C_I = 4, H_I = W_I = 5, H_F = W_F = 3 on a 4x4
    // array with word size 2, executing tile-by-tile.
    const ConvParams p = makeConv(2, 4, 5, 4, 3);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(301);
    filter.fillRandom(302);

    FunctionalTpuCore core(4, 4, 2);
    const FunctionalRunResult r =
        runChannelFirst(core, p, input, filter, 1);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f);
    EXPECT_FALSE(r.portConflict);
    EXPECT_GT(r.vecMemReads, 0);
    EXPECT_GT(r.vecMemWrites, 0);
}

TEST(FunctionalCore, Fig11MultiTileConfiguration)
{
    // Fig 11: C_I = 2 on a 4x4 array -> two tiles merged per pass.
    const ConvParams p = makeConv(2, 2, 5, 4, 3);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(303);
    filter.fillRandom(304);

    FunctionalTpuCore core(4, 4, 2);
    const FunctionalRunResult single =
        runChannelFirst(core, p, input, filter, 1);
    const FunctionalRunResult merged =
        runChannelFirst(core, p, input, filter, 2);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    EXPECT_LT(single.output.maxAbsDiff(ref), 1e-3f);
    EXPECT_LT(merged.output.maxAbsDiff(ref), 1e-3f);
    // Multi-tile halves the number of passes, so it uses fewer cycles.
    EXPECT_LT(merged.cycles, single.cycles);
    EXPECT_FALSE(merged.portConflict);
}

struct CoreCase
{
    Index batch, ci, hw, co, k, s, p;
    Index word, tiles;
};

class FunctionalCoreSweep : public ::testing::TestWithParam<CoreCase>
{
};

TEST_P(FunctionalCoreSweep, MatchesDirectConvWithoutPortConflicts)
{
    // Every algorithm that supports the layer, through its own plan,
    // producer and column order; only channel-first's plan merges.
    const CoreCase c = GetParam();
    const ConvParams p =
        makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.s, c.p);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(305);
    filter.fillRandom(306);

    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    FunctionalTpuCore core(8, 8, c.word);
    for (const conv::Algorithm *algo : conv::allAlgorithms()) {
        const StatusOr<im2col::PassPlan> plan = algo->plan(p);
        if (!plan.ok())
            continue;
        const FunctionalRunResult r =
            core.runConv(*algo, *plan, p, input, filter,
                         plan->mergeable ? c.tiles : 1);
        EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f)
            << algo->name() << " on " << p.toString();
        EXPECT_FALSE(r.portConflict)
            << algo->name() << " on " << p.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalCoreSweep,
    ::testing::Values(CoreCase{1, 8, 5, 8, 3, 1, 0, 2, 1},
                      CoreCase{2, 4, 5, 8, 3, 1, 1, 2, 2},
                      CoreCase{4, 2, 6, 4, 3, 2, 1, 4, 4},
                      CoreCase{2, 8, 7, 6, 3, 2, 1, 8, 1},
                      CoreCase{1, 4, 8, 8, 5, 1, 2, 2, 2},
                      CoreCase{8, 2, 5, 4, 1, 1, 0, 8, 1},
                      CoreCase{2, 3, 6, 5, 2, 2, 0, 2, 2},
                      // C_I 12 > 8 rows: every tap runs in two chunks.
                      CoreCase{1, 12, 5, 6, 3, 1, 1, 2, 1}));

TEST(FunctionalCore, SerializerWordSizeDoesNotChangeResults)
{
    const ConvParams p = makeConv(2, 4, 6, 4, 3, 1, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(307);
    filter.fillRandom(308);
    const tensor::Tensor ref = tensor::convDirect(p, input, filter);
    for (Index word : {1, 2, 4, 8}) {
        FunctionalTpuCore core(4, 4, word);
        const FunctionalRunResult r =
            runChannelFirst(core, p, input, filter, 1);
        EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f) << "word " << word;
        EXPECT_FALSE(r.portConflict) << "word " << word;
    }
}

TEST(FunctionalCore, WiderWordsReduceReadCount)
{
    const ConvParams p = makeConv(4, 4, 6, 4, 3, 1, 1);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    input.fillRandom(309);
    filter.fillRandom(310);
    FunctionalTpuCore narrow(4, 4, 1);
    FunctionalTpuCore wide(4, 4, 8);
    const auto rn = runChannelFirst(narrow, p, input, filter, 1);
    const auto rw = runChannelFirst(wide, p, input, filter, 1);
    EXPECT_GT(rn.vecMemReads, 6 * rw.vecMemReads);
}

TEST(FunctionalCore, RejectsOversizedProblems)
{
    // Taps deeper than the array run in chunks, but never merge.
    const ConvParams p = makeConv(1, 16, 5, 4, 3);
    tensor::Tensor input = makeInput(p);
    tensor::Tensor filter = makeFilter(p);
    FunctionalTpuCore core(8, 8, 2);
    EXPECT_THROW(runChannelFirst(core, p, input, filter, 2), FatalError);

    const ConvParams wide_out = makeConv(1, 4, 5, 16, 3);
    tensor::Tensor in2 = makeInput(wide_out);
    tensor::Tensor f2 = makeFilter(wide_out);
    EXPECT_THROW(runChannelFirst(core, wide_out, in2, f2, 1), FatalError);
    // A multi-tile parameter below 1 is a user error, not an assertion,
    // and so is merging a plan that does not merge.
    const ConvParams fits = makeConv(1, 4, 5, 4, 3);
    tensor::Tensor in3 = makeInput(fits);
    tensor::Tensor f3 = makeFilter(fits);
    EXPECT_THROW(runChannelFirst(core, fits, in3, f3, 0), FatalError);
    const conv::Algorithm &indirect =
        *conv::findAlgorithm(conv::AlgorithmId::Indirect);
    EXPECT_THROW(
        core.runConv(indirect, *indirect.plan(fits), fits, in3, f3, 2),
        FatalError);
}

} // namespace
} // namespace cfconv::tpusim
