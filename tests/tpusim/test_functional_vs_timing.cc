/** @file Cross-validation: the functional TPU core's cycle counts must
 *  match the closed-form pass timing the tile-level simulator uses, and
 *  its vector-memory port operations the ones TpuSim counts, on every
 *  registered algorithm's plan. */

#include <gtest/gtest.h>

#include "conv/algorithm.h"
#include "im2col/pass_plan.h"
#include "systolic/systolic_timing.h"
#include "tensor/conv_ref.h"
#include "tpusim/functional_core.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;

/** Channel-first's plan for @p p. */
im2col::PassPlan
channelFirstPlan(const ConvParams &p)
{
    return *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst)->plan(p);
}

struct TimingCase
{
    Index batch, ci, hw, co, k;
    Index rows, cols, word, tiles;
};

class FunctionalTiming : public ::testing::TestWithParam<TimingCase>
{
};

TEST_P(FunctionalTiming, CyclesMatchClosedFormPassSum)
{
    const TimingCase c = GetParam();
    const auto p = makeConv(c.batch, c.ci, c.hw, c.co, c.k);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(131);
    filter.fillRandom(137);

    // Closed form: one pass per plan pass, each streaming all M rows
    // through a (depth x C_O) weight block.
    systolic::SystolicConfig cfg;
    cfg.rows = c.rows;
    cfg.cols = c.cols;
    FunctionalTpuCore core(c.rows, c.cols, c.word);
    for (const conv::Algorithm *algo : conv::allAlgorithms()) {
        const StatusOr<im2col::PassPlan> plan = algo->plan(p);
        if (!plan.ok())
            continue;
        const Index tiles = plan->mergeable ? c.tiles : 1;
        const auto result =
            core.runConv(*algo, *plan, p, input, filter, tiles);
        Cycles expected = 0;
        for (const im2col::PlanPass &pass : plan->passes(c.rows, tiles))
            expected += systolic::passCycles(cfg, p.gemmM(), pass.depth(),
                                             p.gemmN());
        EXPECT_EQ(result.cycles, expected) << algo->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalTiming,
    ::testing::Values(TimingCase{1, 4, 5, 4, 3, 4, 4, 2, 1},
                      TimingCase{2, 2, 5, 4, 3, 4, 4, 2, 2},
                      TimingCase{1, 8, 6, 8, 3, 8, 8, 4, 1},
                      TimingCase{2, 2, 6, 6, 2, 8, 8, 2, 4},
                      TimingCase{1, 3, 5, 5, 3, 8, 8, 1, 2}));

TEST(FunctionalTiming, MultiTileCutsCyclesProportionally)
{
    // Merging T tiles reduces the pass count by ~T (Fig 11 doubles
    // utilization at T = 2).
    const auto p = makeConv(2, 2, 6, 4, 3);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(139);
    filter.fillRandom(149);
    const conv::Algorithm &channel_first =
        *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    FunctionalTpuCore core(8, 8, 2);
    const auto t1 = core.runConv(channel_first, channelFirstPlan(p), p,
                                 input, filter, 1);
    const auto t3 = core.runConv(channel_first, channelFirstPlan(p), p,
                                 input, filter, 3);
    const double ratio = static_cast<double>(t1.cycles) /
                         static_cast<double>(t3.cycles);
    EXPECT_NEAR(ratio, 3.0, 0.3);
}

TEST(FunctionalTiming, ReadsScaleWithGroupCount)
{
    // Each pass re-reads its operand lanes from the vector memories;
    // word reads = sum over groups of lanes * ceil(M / word).
    const auto p = makeConv(1, 2, 5, 2, 3);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(151);
    filter.fillRandom(157);
    FunctionalTpuCore core(8, 8, 2);
    const im2col::PassPlan plan = channelFirstPlan(p);
    const auto r = core.runConv(
        *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst), plan, p,
        input, filter, 2);
    Index expected_reads = 0;
    for (const im2col::PlanPass &pass : plan.passes(8, 2))
        expected_reads += pass.depth() * divCeil(p.gemmM(), Index{2});
    EXPECT_EQ(r.vecMemReads, expected_reads);
}

TEST(FunctionalTiming, PortOpsMatchTpuSimOnEveryAlgorithm)
{
    // On an 8x8 array, each algorithm's plan run functionally at the
    // record's multi-tile parameter is exact, interleaves without a
    // port conflict, and uses exactly the vector-memory port operations
    // TpuSim's record counts. The layers have an M that is not a word
    // multiple (9 at word 2, 49 at word 4). Cycles are not compared:
    // TpuSim splits such an M into word-multiple tiles, each paying the
    // pipeline fill, so its compute cycles exceed the core's.
    struct Layer
    {
        ConvParams params;
        Index word;
    };
    const Layer layers[] = {
        {makeConv(1, 2, 5, 4, 3), 2},       // M 9, unit stride
        {makeConv(1, 3, 6, 5, 3, 2, 1), 2}, // M 9, stride 2
        {makeConv(1, 4, 7, 8, 3, 1, 1), 4}, // M 49
    };
    for (const Layer &layer : layers) {
        const ConvParams &p = layer.params;
        tensor::Tensor input = tensor::makeInput(p);
        tensor::Tensor filter = tensor::makeFilter(p);
        input.fillRandom(163);
        filter.fillRandom(167);
        const tensor::Tensor ref = tensor::convDirect(p, input, filter);

        TpuConfig config = TpuConfig::tpuV2();
        config.array.rows = config.array.cols = 8;
        config.wordElems = layer.word;
        const TpuSim sim(config);
        FunctionalTpuCore core(8, 8, layer.word);
        for (const conv::Algorithm *algo : conv::allAlgorithms()) {
            const StatusOr<im2col::PassPlan> plan = algo->plan(p);
            if (!plan.ok())
                continue;
            TpuRunOptions options;
            options.algorithm = algo->id();
            const TpuLayerResult record = sim.runConv(p, options);
            const FunctionalRunResult r = core.runConv(
                *algo, *plan, p, input, filter, record.multiTile);
            EXPECT_LT(r.output.maxAbsDiff(ref), 1e-3f)
                << algo->name() << " on " << p.toString();
            EXPECT_FALSE(r.portConflict)
                << algo->name() << " on " << p.toString();
            EXPECT_EQ(r.vecMemReads + r.vecMemWrites, record.vecMemOps)
                << algo->name() << " on " << p.toString();
        }
    }
}

} // namespace
} // namespace cfconv::tpusim
