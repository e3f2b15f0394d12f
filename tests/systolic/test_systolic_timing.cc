/** @file Tests for the closed-form systolic timing model. */

#include <gtest/gtest.h>

#include "systolic/systolic_array.h"
#include "systolic/systolic_timing.h"
#include "tensor/tensor.h"

namespace cfconv::systolic {
namespace {

TEST(PassCycles, MatchesFunctionalArray)
{
    // Cross-validate the closed form against the cycle-level model.
    SystolicConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    for (Index m : {1, 3, 9, 17}) {
        for (Index k : {1, 2, 4}) {
            for (Index n : {1, 3, 4}) {
                Matrix a(m, k), b(k, n);
                a.fillRandom(1);
                b.fillRandom(2);
                SystolicArray array(cfg.rows, cfg.cols);
                array.loadWeights(b);
                array.run(a);
                EXPECT_EQ(passCycles(cfg, m, k, n),
                          array.lastRunCycles())
                    << m << "x" << k << "x" << n;
            }
        }
    }
}

TEST(PassCycles, RejectsOversizedTiles)
{
    SystolicConfig cfg;
    cfg.rows = cfg.cols = 4;
    EXPECT_THROW(passCycles(cfg, 10, 5, 4), FatalError);
    EXPECT_THROW(passCycles(cfg, 10, 4, 5), FatalError);
    EXPECT_THROW(passCycles(cfg, 0, 4, 4), FatalError);
}

TEST(GemmTiming, TilesOverArrayDimensions)
{
    SystolicConfig cfg;
    cfg.rows = cfg.cols = 128;
    // K = 256 -> 2 row tiles; N = 256 -> 2 col tiles; 4 passes total.
    const PassTiming t = gemmTiming(cfg, 1000, 256, 256);
    EXPECT_EQ(t.cycles, 4 * (1000u + 128 + 128 - 1));
    EXPECT_EQ(t.macs, 1000ULL * 256 * 256);
}

TEST(GemmTiming, UtilizationApproachesOneForLargeAlignedGemms)
{
    SystolicConfig cfg;
    const PassTiming t = gemmTiming(cfg, 100000, 128, 128);
    EXPECT_GT(t.utilization, 0.99);
}

TEST(GemmTiming, PartialTilesWasteCapacity)
{
    SystolicConfig cfg;
    // K = 64 uses half the rows: utilization can't exceed 0.5.
    const PassTiming t = gemmTiming(cfg, 100000, 64, 128);
    EXPECT_LT(t.utilization, 0.51);
    EXPECT_GT(t.utilization, 0.45);
}

TEST(GemmTiming, QuantizationPenaltyForBarelyOversized)
{
    SystolicConfig cfg;
    // K = 129 needs two row passes; utilization is halved vs K = 128.
    const PassTiming aligned = gemmTiming(cfg, 50000, 128, 128);
    const PassTiming spill = gemmTiming(cfg, 50000, 129, 128);
    EXPECT_GT(aligned.utilization, 1.9 * spill.utilization);
}

} // namespace
} // namespace cfconv::systolic
