/** @file Tests for the banked DRAM timing model. */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"

#include "dram/dram_model.h"

namespace cfconv::dram {
namespace {

TEST(DramConfig, PeakBandwidthMatchesTargets)
{
    EXPECT_NEAR(DramConfig::hbm700().peakGBps(), 700.0, 10.0);
    EXPECT_NEAR(DramConfig::hbm900().peakGBps(), 900.0, 15.0);
}

TEST(DramModel, SequentialStreamApproachesPeak)
{
    DramModel model(DramConfig::hbm700());
    std::vector<Request> stream;
    for (Bytes addr = 0; addr < 8 * 1024 * 1024; addr += 4096)
        stream.push_back({addr, 4096});
    model.service(stream);
    EXPECT_GT(model.lastEffectiveGBps(),
              0.7 * model.config().peakGBps());
}

TEST(DramModel, SubRowRequestsHitOpenRows)
{
    DramModel model(DramConfig::hbm700());
    // Four 256-byte requests per 1 KB row: 3 of 4 accesses hit.
    std::vector<Request> stream;
    for (Bytes addr = 0; addr < 64 * 1024; addr += 256)
        stream.push_back({addr, 256});
    model.service(stream);
    EXPECT_NEAR(model.lastRowHitRate(), 0.75, 0.05);
}

TEST(DramModel, ScatteredSmallRequestsLoseBandwidth)
{
    DramModel model(DramConfig::hbm700());
    // 4-byte requests scattered with a large prime stride: every access
    // opens a new row.
    std::vector<Request> stream;
    Bytes addr = 0;
    for (int i = 0; i < 4096; ++i) {
        stream.push_back({addr, 4});
        addr += 1048583; // prime > row size * banks
    }
    model.service(stream);
    EXPECT_LT(model.lastEffectiveGBps(),
              0.05 * model.config().peakGBps());
}

TEST(DramModel, ContiguousBeatsStridedForSameVolume)
{
    // The Fig 7 contrast: same bytes, different layouts.
    DramModel model(DramConfig::hbm700());
    std::vector<Request> contiguous;
    for (Bytes addr = 0; addr < 1024 * 1024; addr += 1024)
        contiguous.push_back({addr, 1024});
    const Cycles c_cont = model.service(contiguous);

    std::vector<Request> strided;
    for (Bytes addr = 0; addr < 16 * 1024 * 1024 && strided.size() <
                         1024;
         addr += 16 * 1024)
        strided.push_back({addr, 1024});
    const Cycles c_str = model.service(strided);
    EXPECT_LE(c_cont, c_str);
}

TEST(DramModel, RowCrossingRequestSplits)
{
    DramConfig cfg = DramConfig::hbm700();
    DramModel model(cfg);
    // One request spanning two rows must pay at most two activations
    // and still complete.
    const Cycles t =
        model.service({{cfg.rowBytes - 64, 128}});
    EXPECT_GT(t, 0u);
    EXPECT_LT(model.lastRowHitRate(), 1.0);
}

// Hand-computed cycle pins for the three paths of the walk, on hbm700:
// 8 channels x 16 banks of 1 KB rows, 64 B per bus cycle (a full row
// bursts in 16 cycles, 64 B in the 2-cycle minimum), tPrecharge 16,
// tActivate 14, tCas 14.

TEST(DramModel, RowConflictPaysPrechargeActivateAndCas)
{
    // Rows 0 and 128 both live in bank 0. The first access activates
    // (14 + 14 + 2 = 30); each later one closes the other row first
    // (+16 + 14 + 14 + 2 = 46).
    const DramConfig cfg = DramConfig::hbm700();
    const Bytes other_row = 128 * cfg.rowBytes;
    DramModel model(cfg);
    EXPECT_EQ(model.service({{0, 64}, {other_row, 64}, {0, 64},
                             {other_row, 64}}),
              30u + 3 * 46);
    EXPECT_EQ(model.lastRowHitRate(), 0.0);
}

TEST(DramModel, RunInsideAnOpenRowAddsCasAndBurstPerRequest)
{
    // Eight 64 B requests 128 B apart fill one 1 KB row: the first
    // opens it (30 cycles), the other seven hit and add 14 + 2 each.
    DramModel model(DramConfig::hbm700());
    EXPECT_EQ(model.service({{0, 64, 8, 128}}), 30u + 7 * 16);
    EXPECT_EQ(model.lastRowHitRate(), 7.0 / 8.0);
}

TEST(DramModel, LongRequestRunsBusBoundTurnAfterTurn)
{
    // Five turns of the 128 banks in one request. Turn 1: each channel
    // activates its 16 banks at once (28 cycles) and bursts them back
    // to back, ending at 28 + 16 * 16 = 284. From turn 2 on every row
    // conflict (44 cycles) hides behind the channel's other 15 bursts,
    // so each turn adds 16 bursts: 284 + 4 * 256.
    const DramConfig cfg = DramConfig::hbm700();
    DramModel model(cfg);
    const Bytes turn = 128 * cfg.rowBytes;
    EXPECT_EQ(model.service({{0, 5 * turn}}), 284u + 4 * 256);
    EXPECT_EQ(model.lastRowHitRate(), 0.0);
}

TEST(DramModel, ZeroLengthRequestIsFatal)
{
    DramModel model(DramConfig::hbm700());
    EXPECT_THROW(model.service({{0, 0}}), FatalError);
}

TEST(DramModel, RejectsMalformedRuns)
{
    // A run needs at least one request, and a longer run a stride that
    // keeps its requests apart; the message names the field.
    DramModel model(DramConfig::hbm700());
    const auto message = [&](const Request &run) -> std::string {
        try {
            model.service({run});
        } catch (const FatalError &e) {
            return e.what();
        }
        return "no error";
    };
    EXPECT_NE(message({0, 64, 0, 64}).find("count"), std::string::npos);
    EXPECT_NE(message({0, 64, -3, 64}).find("count"), std::string::npos);
    EXPECT_NE(message({0, 64, 2, 32}).find("stride"), std::string::npos);
    // A run of one ignores its stride.
    EXPECT_GT(model.service({{0, 64, 1, 0}}), 0u);
}

TEST(TransferCycles, ClosedFormScalesLinearly)
{
    const Cycles one = transferCycles(1000, 700.0, 0.7, 1.0);
    const Cycles two = transferCycles(2000, 700.0, 0.7, 1.0);
    EXPECT_NEAR(static_cast<double>(two),
                2.0 * static_cast<double>(one), 2.0);
    // Efficiency of 0.5 doubles the time.
    EXPECT_NEAR(
        static_cast<double>(transferCycles(1000, 700.0, 0.7, 0.5)),
        2.0 * static_cast<double>(one), 2.0);
}

TEST(TransferCycles, RejectsNonPositiveRates)
{
    EXPECT_THROW(transferCycles(100, 0.0, 0.7, 1.0), FatalError);
    EXPECT_THROW(transferCycles(100, 700.0, 0.7, 0.0), FatalError);
}

} // namespace
} // namespace cfconv::dram
