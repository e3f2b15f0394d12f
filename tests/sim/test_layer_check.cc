/** @file Every door a layer comes in by holds it to the one statement
 *  of a valid layer, tensor::checkLayer: each of ConvParams' 13
 *  geometry fields and the group count, broken alone on a valid layer,
 *  and a kernel that overhangs the padded input, are refused by name
 *  at checkLayer, makeConvRect, TpuSim::runGroupedConv,
 *  Accelerator::tryRunLayer, Autotuner::tuneLayer and every
 *  algorithm's supports() and plan(); and every variant's runLayer
 *  refuses a group count that is not positive or does not divide the
 *  channels. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "conv/algorithm.h"
#include "models/model_zoo.h"
#include "sim/accelerator.h"
#include "sim/variants.h"
#include "tensor/conv_params.h"
#include "tpusim/tpu_sim.h"
#include "tune/autotuner.h"

namespace cfconv {
namespace {

using tensor::ConvParams;

/** The valid layer each case breaks: rectangular, strided along W,
 *  padded along H, so no two fields share a value by accident. */
ConvParams
validLayer()
{
    return tensor::makeConvRect(2, 8, 9, 10, 8, 3, 3, 1, 2, 1, 0);
}

/** A layer and group count that break one rule, and the words of
 *  checkLayer()'s message that name it. */
struct Broken
{
    std::string names;
    ConvParams params;
    Index groups = 1;
};

std::vector<Broken>
brokenLayers()
{
    std::vector<Broken> cases;
    const auto field = [&cases](const char *name,
                                Index ConvParams::*member, Index value,
                                Index least) {
        Broken c{std::string(name) + " = " + std::to_string(value) +
                     " must be >= " + std::to_string(least),
                 validLayer()};
        c.params.*member = value;
        cases.push_back(c);
    };
    field("batch", &ConvParams::batch, 0, 1);
    field("inChannels", &ConvParams::inChannels, -8, 1);
    field("outChannels", &ConvParams::outChannels, 0, 1);
    field("inH", &ConvParams::inH, 0, 1);
    field("inW", &ConvParams::inW, -1, 1);
    field("kernelH", &ConvParams::kernelH, 0, 1);
    field("kernelW", &ConvParams::kernelW, -3, 1);
    field("strideH", &ConvParams::strideH, 0, 1);
    field("strideW", &ConvParams::strideW, -2, 1);
    field("dilationH", &ConvParams::dilationH, 0, 1);
    field("dilationW", &ConvParams::dilationW, -1, 1);
    field("padH", &ConvParams::padH, -1, 0);
    field("padW", &ConvParams::padW, -2, 0);

    Broken tall{"dilated kernel height = 12 exceeds padded input height 11",
                validLayer()};
    tall.params.kernelH = 12;
    cases.push_back(tall);
    Broken wide{"dilated kernel width = 13 exceeds padded input width 10",
                validLayer()};
    wide.params.kernelW = 7;
    wide.params.dilationW = 2;
    cases.push_back(wide);

    cases.push_back({"groups = 0 must be >= 1", validLayer(), 0});
    cases.push_back({"groups = -1 must be >= 1", validLayer(), -1});
    cases.push_back(
        {"groups = 3 does not divide inChannels = 8", validLayer(), 3});
    Broken out{"groups = 8 does not divide outChannels = 12", validLayer(),
               8};
    out.params.outChannels = 12;
    cases.push_back(out);
    return cases;
}

/** The text of the FatalError @p run throws, or "" when none. */
template <typename Run>
std::string
fatalText(Run &&run)
{
    try {
        run();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(LayerCheck, EveryDoorNamesTheBrokenRule)
{
    ASSERT_TRUE(tensor::checkLayer(validLayer()).ok());
    const tpusim::TpuSim tpu(tpusim::TpuConfig::tpuV2());
    const auto tpuV2 = sim::makeAccelerator("tpu-v2");
    const auto gpuV100 = sim::makeAccelerator("gpu-v100");
    const auto tpuTuner = tune::Autotuner::create(tune::tpuKnobSpace());
    const auto gpuTuner = tune::Autotuner::create(tune::gpuKnobSpace());
    ASSERT_TRUE(tpuTuner.ok() && gpuTuner.ok());

    for (const Broken &c : brokenLayers()) {
        const ConvParams &p = c.params;
        const Status checked = tensor::checkLayer(p, c.groups);
        EXPECT_EQ(checked.code(), StatusCode::kInvalidArgument) << c.names;
        EXPECT_NE(checked.message().find(c.names), std::string::npos)
            << checked.message();

        if (c.groups == 1) {
            const std::string built = fatalText([&p] {
                tensor::makeConvRect(p.batch, p.inChannels, p.inH, p.inW,
                                     p.outChannels, p.kernelH, p.kernelW,
                                     p.strideH, p.strideW, p.padH, p.padW,
                                     p.dilationH, p.dilationW);
            });
            EXPECT_NE(built.find(c.names), std::string::npos)
                << "makeConvRect: " << built;
        }
        const std::string grouped =
            fatalText([&] { tpu.runGroupedConv(p, c.groups); });
        EXPECT_NE(grouped.find(c.names), std::string::npos)
            << "runGroupedConv: " << grouped;

        sim::RunOptions options;
        options.groups = c.groups;
        for (const auto *accel : {tpuV2.get(), gpuV100.get()}) {
            const auto record = accel->tryRunLayer(p, options);
            ASSERT_FALSE(record.ok()) << accel->name() << ": " << c.names;
            EXPECT_EQ(record.status().code(), StatusCode::kInvalidArgument);
            EXPECT_NE(record.status().message().find(c.names),
                      std::string::npos)
                << record.status().toString();
        }

        models::ConvLayerSpec layer;
        layer.name = "broken";
        layer.params = p;
        layer.groups = c.groups;
        for (const auto &[tuner, baseline] :
             {std::pair{tpuTuner->get(), "tpu-v2"},
              std::pair{gpuTuner->get(), "gpu-v100"}}) {
            tune::TuneOptions tune;
            tune.baseline = baseline;
            const auto choice = tuner->tuneLayer(layer, tune);
            ASSERT_FALSE(choice.ok()) << baseline << ": " << c.names;
            EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument);
            EXPECT_NE(choice.status().message().find(c.names),
                      std::string::npos)
                << choice.status().toString();
        }
    }
}

TEST(LayerCheck, EveryAlgorithmsPlanReturnsTheBrokenRule)
{
    for (const conv::Algorithm *algo : conv::allAlgorithms()) {
        for (const Broken &c : brokenLayers()) {
            const Status supported = algo->supports(c.params, c.groups);
            EXPECT_EQ(supported.code(), StatusCode::kInvalidArgument)
                << algo->name() << ": " << c.names;
            EXPECT_NE(supported.message().find(c.names), std::string::npos)
                << algo->name() << ": " << supported.message();
            if (c.groups != 1)
                continue; // a plan is one group's
            // A Status, never a FatalError from building the plan.
            const StatusOr<im2col::PassPlan> plan = algo->plan(c.params);
            ASSERT_FALSE(plan.ok()) << algo->name() << ": " << c.names;
            EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
            EXPECT_NE(plan.status().message().find(c.names),
                      std::string::npos)
                << algo->name() << ": " << plan.status().message();
        }
    }
}

TEST(LayerCheck, EveryVariantRefusesABadGroupCount)
{
    // The GPU adapter slices channels by the group count, so an
    // unchecked 0 divides by zero and a 3 runs a 21-channel slice.
    const ConvParams p = tensor::makeConv(1, 64, 8, 64, 3, 1, 1);
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const auto accel = sim::makeFromSpec(spec);
        for (const Index groups : {0, -1, 3}) {
            sim::RunOptions options;
            options.groups = groups;
            const std::string text =
                fatalText([&] { accel->runLayer(p, options); });
            EXPECT_NE(text.find("groups = " + std::to_string(groups)),
                      std::string::npos)
                << spec.name << " at groups " << groups << ": " << text;
        }
    }
}

} // namespace
} // namespace cfconv
