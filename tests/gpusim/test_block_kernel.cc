/** @file Tests for the functional block-level kernel on every
 *  registered algorithm's plan. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "conv/algorithm.h"
#include "gpusim/block_kernel.h"
#include "gpusim/gpu_sim.h"
#include "im2col/reorder.h"
#include "tensor/conv_ref.h"

#include "../common/determinism.h"

namespace cfconv::gpusim {
namespace {

using tensor::makeConv;
using tensor::makeConvRect;
using tensor::Tensor;

/** Channel-first's plan for @p p, its taps in @p order. */
im2col::PassPlan
channelFirstPlan(const ConvParams &p,
                 im2col::TileOrder order = im2col::TileOrder::Naive)
{
    return im2col::channelFirstPlan(p, im2col::orderTiles(p, order));
}

const conv::Algorithm &
channelFirst()
{
    return *conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
}

struct BlockCase
{
    Index batch, ci, hw, co, k, s, p;
    Index tm, tn, kc;
    im2col::TileOrder order;
};

class BlockKernel : public ::testing::TestWithParam<BlockCase>
{
};

TEST_P(BlockKernel, EqualsDirectConvWithoutAtomics)
{
    // Every algorithm that supports the layer; the per-tap plans walk
    // their taps in the case's tile order.
    const BlockCase c = GetParam();
    const auto p = makeConv(c.batch, c.ci, c.hw, c.co, c.k, c.s, c.p);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    input.fillRandom(161);
    filter.fillRandom(163);
    const Tensor ref = tensor::convDirect(p, input, filter);

    BlockKernelConfig cfg;
    cfg.tileM = c.tm;
    cfg.tileN = c.tn;
    cfg.chunkK = c.kc;
    for (const conv::Algorithm *algo : conv::allAlgorithms()) {
        StatusOr<im2col::PassPlan> plan = algo->plan(p);
        if (!plan.ok())
            continue;
        if (plan->tapDepth == p.inChannels)
            plan->taps = im2col::orderTiles(p, c.order);
        BlockKernelStats stats;
        const Tensor out =
            convBlock(*algo, *plan, p, input, filter, cfg, &stats);
        EXPECT_LT(out.maxAbsDiff(ref), 1e-3f)
            << algo->name() << " on " << p.toString();

        // Each OFMap element written exactly once (checked internally
        // via assertion) and accounted for here.
        EXPECT_EQ(stats.outputWrites, p.outputElems()) << algo->name();
        EXPECT_EQ(stats.threadBlocks,
                  divCeil(p.gemmM(), c.tm) * divCeil(p.gemmN(), c.tn))
            << algo->name();
        EXPECT_EQ(stats.stagingSteps,
                  stats.threadBlocks *
                      static_cast<Index>(plan->passes(c.kc).size()))
            << algo->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockKernel,
    ::testing::Values(
        BlockCase{1, 4, 6, 4, 3, 1, 1, 8, 4, 4,
                  im2col::TileOrder::Naive},
        BlockCase{2, 3, 7, 5, 3, 2, 1, 16, 8, 2,
                  im2col::TileOrder::ReuseGreedy},
        BlockCase{1, 8, 5, 8, 3, 1, 0, 4, 8, 8,
                  im2col::TileOrder::ReuseGreedy},
        BlockCase{2, 2, 9, 3, 5, 2, 2, 32, 4, 2,
                  im2col::TileOrder::Naive},
        BlockCase{1, 6, 8, 6, 1, 1, 0, 64, 64, 3,
                  im2col::TileOrder::Naive},
        BlockCase{1, 3, 10, 4, 3, 3, 1, 8, 8, 3,
                  im2col::TileOrder::ReuseGreedy}));

TEST(BlockKernel, StagesEveryPassOfEveryPlan)
{
    // On layers whose M is not a multiple of the TB tile, every
    // registered plan writes each OFMap element once and stages each of
    // its k-steps once per thread block: the k-steps GpuSim times, all
    // but its output-tile epilogue.
    const ConvParams layers[] = {
        makeConv(1, 2, 5, 4, 3),       // M 9, unit stride
        makeConv(1, 3, 6, 5, 3, 2, 1), // M 9, stride 2
        makeConv(1, 4, 7, 8, 3, 1, 1), // M 49
        makeConv(1, 72, 5, 4, 3),      // C_I 72: two chunks per tap
    };
    BlockKernelConfig cfg;
    cfg.tileM = 16;
    cfg.tileN = 4;
    cfg.chunkK = kChunkK;
    const GpuSim sim((GpuConfig::v100()));
    for (const ConvParams &p : layers) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p);
        input.fillRandom(169);
        filter.fillRandom(173);
        const Tensor ref = tensor::convDirect(p, input, filter);
        for (const conv::Algorithm *algo : conv::allAlgorithms()) {
            const StatusOr<im2col::PassPlan> plan = algo->plan(p);
            if (!plan.ok())
                continue;
            BlockKernelStats stats;
            const Tensor out =
                convBlock(*algo, *plan, p, input, filter, cfg, &stats);
            EXPECT_LT(out.maxAbsDiff(ref), 1e-3f)
                << algo->name() << " on " << p.toString();
            EXPECT_EQ(stats.outputWrites, p.outputElems()) << algo->name();
            GpuRunOptions options;
            options.algorithm = algo->id();
            const Index k_steps =
                sim.runConv(p, options).breakdown.steps - 1;
            EXPECT_EQ(stats.stagingSteps, stats.threadBlocks * k_steps)
                << algo->name() << " on " << p.toString();
        }
    }
}

TEST(BlockKernel, ReturnsExecuteBytesOnItsOwnPlan)
{
    // On an algorithm's own plan the block kernel's K chunks, chained
    // through accumulating GEMMs, replay execute()'s per-element chain,
    // so the bytes match whatever the TB tile and chunk depth. (A
    // reordered plan sums in another order; the tests above keep a
    // tolerance for those.)
    const ConvParams layers[] = {
        makeConv(1, 40, 6, 13, 3, 1, 1),  // gemmK 360
        makeConv(1, 3, 15, 8, 5, 2, 2),   // 5x5/2 stem, C_I 3
        makeConv(2, 6, 8, 6, 3, 1, 1),    // batch 2, unit stride
        makeConv(1, 5, 9, 4, 3, 2, 1),    // stride 2, gemmM 25
        makeConv(2, 8, 7, 6, 1),          // pointwise
        makeConvRect(1, 3, 8, 10, 4, 3, 5, 1, 2, 2, 1),
    };
    forEachKernelBackend([&](tensor::KernelBackend backend) {
        for (const ConvParams &p : layers) {
            Tensor input = tensor::makeInput(p);
            Tensor filter = tensor::makeFilter(p);
            input.fillRandom(179);
            filter.fillRandom(181);
            for (const conv::Algorithm *algo : conv::allAlgorithms()) {
                const StatusOr<im2col::PassPlan> plan = algo->plan(p);
                if (!plan.ok())
                    continue;
                const Tensor want = algo->execute(p, input, filter);
                BlockKernelConfig cfg;
                for (const Index tm : {7, 16, 33})
                    for (const Index tn : {5, 8, 24})
                        for (const Index kc : {1, 5, 16, 64}) {
                            cfg.tileM = tm;
                            cfg.tileN = tn;
                            cfg.chunkK = kc;
                            EXPECT_TRUE(sameBytes(
                                want, convBlock(*algo, *plan, p, input,
                                                filter, cfg)))
                                << algo->name() << " ("
                                << tensor::kernelBackendName(backend)
                                << ") tile " << tm << "x" << tn
                                << " chunkK " << kc << " on "
                                << p.toString();
                        }
            }
        }
    });
}

TEST(BlockKernel, TileOrderDoesNotChangeResults)
{
    const auto p = makeConv(2, 4, 8, 4, 3, 2, 1);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    input.fillRandom(167);
    filter.fillRandom(173);
    const Tensor a =
        convBlock(channelFirst(), channelFirstPlan(p), p, input, filter);
    const Tensor b = convBlock(
        channelFirst(),
        channelFirstPlan(p, im2col::TileOrder::ReuseGreedy), p, input,
        filter);
    EXPECT_LT(a.maxAbsDiff(b), 1e-4f);
}

TEST(BlockKernel, StagingRespectsSharedMemoryBound)
{
    const auto p = makeConv(1, 8, 6, 8, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    BlockKernelConfig cfg;
    cfg.tileM = 16;
    cfg.tileN = 8;
    cfg.chunkK = 8;
    BlockKernelStats stats;
    convBlock(channelFirst(), channelFirstPlan(p), p, input, filter, cfg,
              &stats);
    EXPECT_LE(stats.peakStagingBytes, cfg.sharedMemBytes);
    // (tileM*chunkK + chunkK*tileN) * 2 bytes.
    EXPECT_EQ(stats.peakStagingBytes,
              static_cast<Bytes>((16 * 8 + 8 * 8) * 2));
}

TEST(BlockKernel, OversizedStagingIsFatal)
{
    const auto p = makeConv(1, 64, 8, 64, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    BlockKernelConfig cfg;
    cfg.tileM = 64;
    cfg.tileN = 64;
    cfg.chunkK = 64;
    cfg.sharedMemBytes = 1024; // absurdly small
    EXPECT_THROW(convBlock(channelFirst(), channelFirstPlan(p), p, input,
                           filter, cfg),
                 FatalError);
}

TEST(BlockKernel, RejectsBadConfig)
{
    const auto p = makeConv(1, 2, 5, 2, 3);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    BlockKernelConfig cfg;
    cfg.tileM = 0;
    EXPECT_THROW(convBlock(channelFirst(), channelFirstPlan(p), p, input,
                           filter, cfg),
                 FatalError);
}

} // namespace
} // namespace cfconv::gpusim
