/** @file Contract tests for the conv::Algorithm registry: identity,
 *  name parsing, applicability predicates, the traffic model each
 *  registered scheme advertises, and properties of the pass plans both
 *  simulators schedule. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "conv/algorithm.h"
#include "im2col/pass_plan.h"
#include "tensor/conv_params.h"
#include "tensor/conv_ref.h"

#include "awkward_shapes.h"

namespace cfconv::conv {
namespace {

using tensor::makeConv;

TEST(AlgorithmRegistry, AllAlgorithmsInIdOrder)
{
    const auto &all = allAlgorithms();
    ASSERT_EQ(all.size(), static_cast<size_t>(kAlgorithmCount));
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(static_cast<size_t>(all[i]->id()), i);
        // Both lookups agree with the registration order.
        EXPECT_EQ(findAlgorithm(all[i]->id()), all[i]);
        EXPECT_EQ(findAlgorithm(std::string(all[i]->name())), all[i]);
        EXPECT_STREQ(algorithmName(all[i]->id()), all[i]->name());
    }
}

TEST(AlgorithmRegistry, CanonicalNamesAreStable)
{
    // These spellings are serialized into RunRecords and the tuned-DB:
    // changing one is a schema break, which is what this test pins.
    const std::vector<std::string> expected = {
        "channel-first", "channel-last", "explicit-im2col", "indirect",
        "smm"};
    const auto &all = allAlgorithms();
    ASSERT_EQ(all.size(), expected.size());
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i]->name(), expected[i]);
}

TEST(AlgorithmRegistry, ParseRoundTripsEveryName)
{
    for (const Algorithm *algo : allAlgorithms()) {
        const StatusOr<AlgorithmId> parsed =
            parseAlgorithmName(algo->name());
        ASSERT_TRUE(parsed.ok()) << algo->name();
        EXPECT_EQ(*parsed, algo->id());
    }
}

TEST(AlgorithmRegistry, ParseNamesTheOffenderAndListsKnown)
{
    for (const char *bad : {"winograd", "SMM", "Channel-First", ""}) {
        const StatusOr<AlgorithmId> parsed = parseAlgorithmName(bad);
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
        const std::string message = parsed.status().message();
        EXPECT_NE(message.find('"' + std::string(bad) + '"'),
                  std::string::npos)
            << message;
        // The error doubles as the help text: every valid spelling.
        for (const Algorithm *algo : allAlgorithms())
            EXPECT_NE(message.find(algo->name()), std::string::npos)
                << message;
    }
}

TEST(AlgorithmRegistry, UnknownNameLookupReturnsNull)
{
    EXPECT_EQ(findAlgorithm(std::string("winograd")), nullptr);
    EXPECT_EQ(findAlgorithm(std::string("")), nullptr);
}

TEST(AlgorithmSupports, OnlySmmRestrictsStrideAndDilation)
{
    const auto strided = makeConv(1, 4, 9, 4, 3, /*stride=*/2, 1);
    const auto dilated =
        makeConv(1, 4, 9, 4, 3, /*stride=*/1, /*pad=*/2, /*dilation=*/2);
    for (const Algorithm *algo : allAlgorithms()) {
        const bool is_smm = algo->id() == AlgorithmId::Smm;
        EXPECT_EQ(algo->supports(strided, 1).ok(), !is_smm)
            << algo->name();
        EXPECT_EQ(algo->supports(dilated, 1).ok(), !is_smm)
            << algo->name();
    }
    const Algorithm *smm = findAlgorithm(AlgorithmId::Smm);
    EXPECT_NE(smm->supports(strided, 1).message().find("unit stride"),
              std::string::npos);
    EXPECT_NE(smm->supports(dilated, 1).message().find("unit dilation"),
              std::string::npos);
    // On a unit-stride/unit-dilation layer SMM-Conv is applicable.
    EXPECT_TRUE(smm->supports(makeConv(1, 4, 9, 4, 3, 1, 1), 1).ok());
}

TEST(AlgorithmSupports, EveryAlgorithmRejectsNonPositiveGroups)
{
    const auto p = makeConv(1, 8, 9, 8, 3, 1, 1);
    for (const Algorithm *algo : allAlgorithms()) {
        const Status bad = algo->supports(p, 0);
        ASSERT_FALSE(bad.ok()) << algo->name();
        EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
        // checkLayer()'s words: the group rule is stated only there.
        EXPECT_EQ(bad.message(), tensor::checkLayer(p, 0).message())
            << algo->name();
        EXPECT_NE(bad.message().find("groups = 0 must be >= 1"),
                  std::string::npos)
            << bad.message();
        EXPECT_TRUE(algo->supports(p, 2).ok()) << algo->name();
    }
}

TEST(AlgorithmTraffic, TotalIsTheSumOfTheOperandClasses)
{
    const auto p = makeConv(2, 8, 14, 16, 3, 2, 1);
    for (const Algorithm *algo : allAlgorithms()) {
        const Traffic t = algo->traffic(p);
        EXPECT_EQ(t.totalBytes(), t.inputBytes + t.filterBytes +
                                      t.outputBytes + t.workspaceBytes +
                                      t.metadataBytes)
            << algo->name();
        EXPECT_GT(t.inputBytes, 0) << algo->name();
        EXPECT_EQ(t.filterBytes, p.filterBytes()) << algo->name();
        EXPECT_EQ(t.outputBytes, p.outputBytes()) << algo->name();
    }
}

TEST(AlgorithmTraffic, SchemesDifferOnlyWhereTheyShould)
{
    const auto p = makeConv(2, 8, 14, 16, 3, 1, 1);
    const Traffic cf =
        findAlgorithm(AlgorithmId::ChannelFirst)->traffic(p);
    const Traffic cl =
        findAlgorithm(AlgorithmId::ChannelLast)->traffic(p);
    const Traffic smm = findAlgorithm(AlgorithmId::Smm)->traffic(p);
    // The three no-materialization schemes move identical unique bytes.
    for (const Traffic &t : {cl, smm}) {
        EXPECT_EQ(t.inputBytes, cf.inputBytes);
        EXPECT_EQ(t.workspaceBytes, 0);
        EXPECT_EQ(t.metadataBytes, 0);
    }
    EXPECT_EQ(cf.workspaceBytes, 0);
    EXPECT_EQ(cf.metadataBytes, 0);

    // Explicit writes the lowered matrix once and reads it back.
    const Traffic ex =
        findAlgorithm(AlgorithmId::ExplicitIm2col)->traffic(p);
    EXPECT_EQ(ex.workspaceBytes, 2 * p.loweredBytes());
    EXPECT_GT(ex.totalBytes(), cf.totalBytes());

    // Indirect adds exactly the pointer table on top of implicit.
    const Traffic in =
        findAlgorithm(AlgorithmId::Indirect)->traffic(p);
    EXPECT_EQ(in.inputBytes, cf.inputBytes);
    EXPECT_EQ(in.workspaceBytes, 0);
    EXPECT_GT(in.totalBytes(), cf.totalBytes());
    EXPECT_LT(in.totalBytes(), ex.totalBytes());
}

TEST(AlgorithmTraffic, ExplicitIm2colPaysTheDuplication)
{
    const auto p = makeConv(2, 8, 14, 16, 3, 1, 1);
    const Algorithm *ex = findAlgorithm(AlgorithmId::ExplicitIm2col);
    const Traffic t = ex->traffic(p);
    // The transform writes the lowered matrix and the GEMM reads it
    // back. At unit stride with same padding a 3x3 lowered matrix holds
    // every IFMap value 9 times (Table 1), so the workspace moves 18
    // IFMaps.
    EXPECT_EQ(t.inputBytes, p.inputBytes());
    EXPECT_EQ(t.workspaceBytes, 18 * t.inputBytes);
    EXPECT_EQ(t.metadataBytes, 0);
    const StatusOr<im2col::PassPlan> plan = ex->plan(p);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->feed, im2col::FeedLocality::Workspace);
    EXPECT_EQ(plan->transformBytes, p.inputBytes() + p.loweredBytes());
}

TEST(AlgorithmTraffic, IndirectPaysOnlyThePointerTable)
{
    const auto p = makeConv(2, 8, 14, 16, 3, 1, 1);
    const Traffic in = findAlgorithm(AlgorithmId::Indirect)->traffic(p);
    const Traffic cf =
        findAlgorithm(AlgorithmId::ChannelFirst)->traffic(p);
    // One 8-byte pointer per (output position, filter tap), on top of
    // the implicit schemes' bytes.
    EXPECT_EQ(in.metadataBytes,
              static_cast<Bytes>(p.gemmM()) * p.kernelH * p.kernelW * 8);
    EXPECT_EQ(in.totalBytes(), cf.totalBytes() + in.metadataBytes);
}

/** Array heights the plan properties are checked against. */
constexpr Index kArrayRows[] = {32, 64, 128, 256, 512};

TEST(AlgorithmPlan, ImplicitPlansCoverTheGemmExactlyOnce)
{
    for (const ConvParams &p : awkwardShapes()) {
        for (const Algorithm *algo : allAlgorithms()) {
            const StatusOr<im2col::PassPlan> plan = algo->plan(p);
            if (!plan.ok())
                continue;
            const Index taps = static_cast<Index>(plan->taps.size());
            EXPECT_EQ(taps * plan->tapDepth, p.gemmK())
                << algo->name() << " on " << p.toString();
            if (plan->feed == im2col::FeedLocality::Workspace)
                continue;
            // Table I: no lowered matrix is ever materialized.
            EXPECT_EQ(plan->transformBytes, 0) << algo->name();
            EXPECT_EQ(algo->traffic(p).workspaceBytes, 0) << algo->name();
            for (const Index rows : kArrayRows) {
                const Index merge =
                    plan->mergeable && plan->tapDepth <= rows
                        ? im2col::tpuMultiTileParam(rows, p)
                        : 1;
                // Walk the passes: every tap's depth is consumed in
                // order, with no slice twice and none skipped.
                std::vector<Index> covered(static_cast<size_t>(taps), 0);
                Index depth = 0;
                for (const im2col::PlanPass &pass :
                     plan->passes(rows, merge)) {
                    EXPECT_LE(pass.depth(), rows) << algo->name();
                    depth += pass.depth();
                    for (Index t = pass.firstTap;
                         t < pass.firstTap + pass.taps; ++t) {
                        Index &next = covered[static_cast<size_t>(t)];
                        EXPECT_EQ(pass.offset, next) << algo->name();
                        next += pass.slice;
                    }
                }
                EXPECT_EQ(depth, p.gemmK())
                    << algo->name() << " rows " << rows << " on "
                    << p.toString();
                for (const Index next : covered)
                    EXPECT_EQ(next, plan->tapDepth) << algo->name();
            }
        }
    }
}

TEST(AlgorithmPlan, MetadataIsTheGeometrysPointerTable)
{
    for (const ConvParams &p : awkwardShapes()) {
        for (const Algorithm *algo : allAlgorithms()) {
            const StatusOr<im2col::PassPlan> plan = algo->plan(p);
            if (!plan.ok())
                continue;
            EXPECT_EQ(static_cast<Bytes>(p.gemmM()) *
                          static_cast<Bytes>(plan->taps.size()) *
                          plan->metadataBytesPerRowTap,
                      algo->traffic(p).metadataBytes)
                << algo->name() << " on " << p.toString();
            EXPECT_EQ(plan->metadataBytes(p.gemmM()),
                      algo->traffic(p).metadataBytes)
                << algo->name() << " on " << p.toString();
        }
        const StatusOr<im2col::PassPlan> indirect =
            findAlgorithm(AlgorithmId::Indirect)->plan(p);
        ASSERT_TRUE(indirect.ok());
        EXPECT_EQ(indirect->metadataBytesPerRowTap, 8);
        EXPECT_EQ(indirect->feed, im2col::FeedLocality::PointerGather);
    }
}

TEST(AlgorithmPlan, SmmOnStridedShapesIsInvalidArgument)
{
    const Algorithm *smm = findAlgorithm(AlgorithmId::Smm);
    Index strided = 0;
    for (const ConvParams &p : awkwardShapes()) {
        const bool unit = p.strideH == 1 && p.strideW == 1 &&
                          p.dilationH == 1 && p.dilationW == 1;
        const StatusOr<im2col::PassPlan> plan = smm->plan(p);
        EXPECT_EQ(plan.ok(), unit) << p.toString();
        if (unit)
            continue;
        ++strided;
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(plan.status().message(),
                  smm->supports(p, 1).message());
    }
    EXPECT_GT(strided, 0);
}

/** @p point's pointer rows for @p taps over GEMM rows [m0, m1), in a
 *  buffer exactly as long as the TapPointers contract asks for; the
 *  values stay valid while @p panel lives. */
std::vector<const float *>
pointRows(const im2col::TapPointers &point,
          const std::vector<im2col::FilterTile> &taps, Index m0, Index m1,
          std::vector<float> &panel)
{
    std::vector<const float *> rows(taps.size() *
                                    static_cast<size_t>(m1 - m0));
    point(taps, m0, m1, rows.data(), m1 - m0, panel);
    return rows;
}

TEST(AlgorithmPlan, ProducersPointOnlyAtTheRequestedTaps)
{
    // Every producer fills one pointer row per tap it is asked for, and
    // no more: one tap, or one pass's taps, point at the values the
    // whole-plan call gives those taps. The functional models ask for
    // one pass at a time, into a buffer sized for that pass.
    for (const ConvParams &p : awkwardShapes()) {
        tensor::Tensor input = tensor::makeInput(p);
        input.fillRandom(71);
        for (const Algorithm *algo : allAlgorithms()) {
            const StatusOr<im2col::PassPlan> plan = algo->plan(p);
            if (!plan.ok())
                continue;
            const im2col::TapPointers point =
                algo->pointers(p, input, *plan);
            const Index m0 = p.gemmM() / 2;
            const Index m1 = p.gemmM();
            const Index depth = plan->tapDepth;
            std::vector<float> whole_panel;
            const std::vector<const float *> whole =
                pointRows(point, plan->taps, m0, m1, whole_panel);
            const auto expectSame = [&](Index first_tap, Index taps) {
                const auto begin = plan->taps.begin() + first_tap;
                std::vector<float> panel;
                const std::vector<const float *> rows = pointRows(
                    point, {begin, begin + taps}, m0, m1, panel);
                for (Index t = 0; t < taps; ++t)
                    for (Index i = 0; i < m1 - m0; ++i)
                        EXPECT_EQ(std::memcmp(
                                      rows[static_cast<size_t>(
                                          t * (m1 - m0) + i)],
                                      whole[static_cast<size_t>(
                                          (first_tap + t) * (m1 - m0) +
                                          i)],
                                      static_cast<size_t>(depth) *
                                          sizeof(float)),
                                  0)
                            << algo->name() << " tap " << first_tap + t
                            << " row " << m0 + i << " on "
                            << p.toString();
            };
            for (Index t = 0; t < static_cast<Index>(plan->taps.size());
                 ++t)
                expectSame(t, 1);
            const Index merge = plan->mergeable ? 2 : 1;
            for (const im2col::PlanPass &pass :
                 plan->passes(merge * depth, merge))
                expectSame(pass.firstTap, pass.taps);
        }
    }
}

} // namespace
} // namespace cfconv::conv
