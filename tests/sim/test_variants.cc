/** @file Tests for the named accelerator-variant zoo (sim/variants):
 *  every variant constructs and runs a smoke layer, the factory
 *  resolves every name through the table, names and design points are
 *  distinct, and the four stock configurations stay byte-identical to
 *  their direct adapter constructions. */

#include <gtest/gtest.h>

#include <set>

#include "gpusim/kernel_cache.h"
#include "sim/gpu_accelerator.h"
#include "sim/tpu_accelerator.h"
#include "sim/variants.h"
#include "tpusim/layer_cache.h"

namespace cfconv::sim {
namespace {

using tensor::makeConv;

TEST(VariantTable, EveryVariantConstructsAndRunsASmokeLayer)
{
    ASSERT_GE(variantSpecs().size(), 20u);
    const auto p = makeConv(1, 64, 28, 64, 3, 1, 1);
    for (const VariantSpec &spec : variantSpecs()) {
        const auto accelerator = makeFromSpec(spec);
        EXPECT_EQ(accelerator->name(), spec.name);
        EXPECT_GT(accelerator->peakTflops(), 0.0) << spec.name;
        const LayerRecord record = accelerator->runLayer(p);
        EXPECT_GT(record.seconds, 0.0) << spec.name;
        EXPECT_GT(record.tflops, 0.0) << spec.name;
        EXPECT_EQ(record.flops, p.flops()) << spec.name;
    }
}

TEST(VariantTable, NamesAndDesignPointsAreDistinct)
{
    const std::vector<VariantSpec> &table = variantSpecs();
    ASSERT_GE(table.size(), 4u);
    EXPECT_EQ(table[0].name, "tpu-v2");
    EXPECT_EQ(table[1].name, "tpu-v3ish");
    EXPECT_EQ(table[2].name, "gpu-v100");
    EXPECT_EQ(table[3].name, "gpu-v100-cudnn");

    // No two names denote the same design point: on one layer, each
    // spec's memo-cache key (every config and run-option field that
    // can change a result) is its own.
    const auto p = makeConv(8, 64, 28, 64, 3, 1, 1);
    std::set<std::string> names, keys;
    for (const VariantSpec &spec : table) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_TRUE(names.insert(spec.name).second) << spec.name;
        const std::string key =
            spec.backend == Backend::Tpu
                ? tpusim::layerCacheKey(spec.tpuConfig, p, spec.tpuOptions)
                : gpusim::kernelCacheKey(spec.gpuConfig, p,
                                         spec.gpuOptions);
        EXPECT_TRUE(keys.insert(key).second) << spec.name;
    }
}

TEST(VariantTable, FactoryResolvesEveryNameThroughTheTable)
{
    for (const VariantSpec &spec : variantSpecs()) {
        EXPECT_EQ(findVariant(spec.name), &spec) << spec.name;
        EXPECT_EQ(makeAccelerator(spec.name)->name(), spec.name);
    }
    EXPECT_EQ(findVariant(""), nullptr);
    EXPECT_EQ(findVariant("tpu-v9-imaginary"), nullptr);
}

TEST(VariantTable, UnknownNameIsNotFoundAndListsValidNames)
{
    const auto made = tryMakeAccelerator("tpu-v9-imaginary");
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
    const std::string &message = made.status().message();
    EXPECT_NE(message.find("tpu-v9-imaginary"), std::string::npos);
    // The message enumerates the valid names — all of them.
    for (const VariantSpec &spec : variantSpecs())
        EXPECT_NE(message.find(spec.name), std::string::npos) << spec.name;
}

/** Compare two LayerRecords field by field, including extras. */
void
expectSameRecord(const LayerRecord &got, const LayerRecord &want,
                 const std::string &tag)
{
    EXPECT_EQ(got.geometry, want.geometry) << tag;
    EXPECT_EQ(got.seconds, want.seconds) << tag;
    EXPECT_EQ(got.tflops, want.tflops) << tag;
    EXPECT_EQ(got.utilization, want.utilization) << tag;
    EXPECT_EQ(got.dramBytes, want.dramBytes) << tag;
    EXPECT_EQ(got.flops, want.flops) << tag;
    ASSERT_EQ(got.extras.size(), want.extras.size()) << tag;
    for (const auto &[key, value] : want.extras) {
        ASSERT_TRUE(got.extras.count(key)) << tag << " " << key;
        EXPECT_EQ(got.extras.at(key), value) << tag << " " << key;
    }
}

TEST(VariantTable, StockVariantsMatchDirectConstructionsExactly)
{
    // The four stock names must produce byte-identical records through
    // the table vs direct adapter constructions of the stock configs.
    const std::vector<tensor::ConvParams> layers = {
        makeConv(8, 3, 224, 64, 7, 2, 3),
        makeConv(8, 64, 56, 64, 1, 1, 0),
        makeConv(8, 256, 14, 256, 3, 2, 1),
    };

    std::vector<std::unique_ptr<Accelerator>> direct;
    direct.push_back(std::make_unique<TpuAccelerator>(
        "tpu-v2", tpusim::TpuConfig::tpuV2()));
    direct.push_back(std::make_unique<TpuAccelerator>(
        "tpu-v3ish", tpusim::TpuConfig::tpuV3ish()));
    direct.push_back(std::make_unique<GpuAccelerator>(
        "gpu-v100", gpusim::GpuConfig::v100()));
    gpusim::GpuRunOptions cudnn;
    cudnn.algorithm = conv::AlgorithmId::ChannelLast;
    cudnn.vendorTuned = true;
    direct.push_back(std::make_unique<GpuAccelerator>(
        "gpu-v100-cudnn", gpusim::GpuConfig::v100(), cudnn));

    for (const auto &want : direct) {
        const auto got = makeAccelerator(want->name());
        EXPECT_EQ(got->peakTflops(), want->peakTflops())
            << want->name();
        for (const auto &p : layers)
            expectSameRecord(got->runLayer(p), want->runLayer(p),
                             want->name() + " " + p.toString());
    }
}

} // namespace
} // namespace cfconv::sim
