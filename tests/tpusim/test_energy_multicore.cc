/** @file Tests for the energy model. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sram/energy_model.h"
#include "tpusim/energy.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::tpusim {
namespace {

using tensor::makeConv;

TEST(SramEnergy, PerByteEnergyFallsWithWordSize)
{
    sram::SramEnergyModel model;
    const Bytes cap = 256 * 1024;
    double prev = model.perBytePj(cap, 1);
    for (Index w : {2L, 4L, 8L, 16L}) {
        const double cur = model.perBytePj(cap, w);
        EXPECT_LT(cur, prev) << "word " << w;
        prev = cur;
    }
}

TEST(SramEnergy, AccessEnergyGrowsWithWordAndCapacity)
{
    sram::SramEnergyModel model;
    EXPECT_GT(model.accessPj(256 * 1024, 16),
              model.accessPj(256 * 1024, 4));
    EXPECT_GT(model.accessPj(1024 * 1024, 8),
              model.accessPj(128 * 1024, 8));
}

TEST(SramEnergy, RejectsBadInputs)
{
    sram::SramEnergyModel model;
    EXPECT_THROW(model.accessPj(0, 8), FatalError);
    EXPECT_THROW(model.accessPj(1024, 0), FatalError);
}

TEST(TpuEnergy, BreakdownSumsToTotal)
{
    TpuSim sim((TpuConfig::tpuV2()));
    const auto r = sim.runConv(makeConv(8, 128, 28, 128, 3, 1, 1));
    const TpuEnergyReport e = layerEnergy(sim.config(), r);
    EXPECT_NEAR(e.totalPj, e.dramPj + e.sramPj + e.macPj, 1e-6);
    EXPECT_GT(e.macPj, 0.0);
    EXPECT_GT(e.sramPj, 0.0);
    EXPECT_GT(e.pjPerMac, sram::kMacPj); // overheads exist
}

TEST(TpuEnergy, ResidentLayersSpendLessDramEnergy)
{
    TpuSim sim((TpuConfig::tpuV2()));
    // Same compute, different residency: batch 8 fits, batch 64 does
    // not (at 112x112x64).
    const auto small = sim.runConv(makeConv(8, 64, 112, 64, 3, 1, 1));
    const auto big = sim.runConv(makeConv(64, 64, 112, 64, 3, 1, 1));
    const auto e_small = layerEnergy(sim.config(), small);
    const auto e_big = layerEnergy(sim.config(), big);
    // Per MAC, the streamed layer pays far more DRAM energy.
    const double macs_small = small.tflops * 1e12 * small.seconds / 2.0;
    const double macs_big = big.tflops * 1e12 * big.seconds / 2.0;
    EXPECT_GT(e_big.dramPj / macs_big,
              5.0 * e_small.dramPj / macs_small);
}

} // namespace
} // namespace cfconv::tpusim
