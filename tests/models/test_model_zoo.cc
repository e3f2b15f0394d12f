/** @file Sanity tests for the CNN layer-shape zoo. */

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <string>

#include "models/model_zoo.h"

namespace cfconv::models {
namespace {

TEST(ModelZoo, AllSevenModelsPresent)
{
    const auto zoo = allModels(1);
    ASSERT_EQ(zoo.size(), 7u);
    EXPECT_EQ(zoo[0].name, "AlexNet");
    EXPECT_EQ(zoo[1].name, "DenseNet");
    EXPECT_EQ(zoo[2].name, "GoogleNet");
    EXPECT_EQ(zoo[3].name, "ResNet");
    EXPECT_EQ(zoo[4].name, "VGG16");
    EXPECT_EQ(zoo[5].name, "YOLO");
    EXPECT_EQ(zoo[6].name, "ZFNet");
}

TEST(ModelZoo, TableIsAllModelsThenMobileNet)
{
    const auto zoo = allModels(1);
    ASSERT_EQ(std::size(kModels), zoo.size() + 1);
    for (size_t i = 0; i < zoo.size(); ++i)
        EXPECT_EQ(kModels[i].factory(1).name, zoo[i].name) << i;
    EXPECT_EQ(kModels[zoo.size()].factory(1).name, "MobileNet");
}

TEST(ModelZoo, FindModelTakesEverySpelling)
{
    // The factory name (serving's classes=), the display name
    // (bench_models_report's model=) and its lowercase form
    // (design_explorer's model=) all name the same model.
    for (const NamedModel &entry : kModels) {
        const std::string display = entry.factory(1).name;
        std::string lower = display;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        for (const std::string &name : {std::string(entry.name), display,
                                        lower}) {
            const StatusOr<ModelFactory> found = findModel(name);
            ASSERT_TRUE(found.ok()) << found.status().toString();
            EXPECT_EQ(*found, entry.factory) << name;
        }
    }
    const Status unknown = findModel("lenet").status();
    EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
    EXPECT_NE(unknown.message().find("'lenet'"), std::string::npos);
    EXPECT_NE(unknown.message().find("resnet50"), std::string::npos);
}

TEST(ModelZoo, EveryLayerValidates)
{
    for (const auto &model : allModels(8)) {
        for (const auto &layer : model.layers) {
            EXPECT_NO_THROW(layer.params.validate())
                << model.name << "/" << layer.name;
            EXPECT_GE(layer.count, 1);
        }
    }
}

TEST(ModelZoo, KnownLayerCounts)
{
    EXPECT_EQ(alexnet(1).layerInstances(), 5);
    EXPECT_EQ(zfnet(1).layerInstances(), 5);
    EXPECT_EQ(vgg16(1).layerInstances(), 13);
    // ResNet-50: 1 stem + 4 stages x (4 first-block convs) +
    // (3+4+6+3 - 4) x 3 remaining-block convs = 1 + 16 + 36 = 53.
    EXPECT_EQ(resnet50(1).layerInstances(), 53);
    // GoogleNet: 3 stem + 9 inceptions x 6 convs = 57.
    EXPECT_EQ(googlenet(1).layerInstances(), 57);
    // DenseNet-121: 1 stem + 58 dense layers x 2 + 3 transitions = 120.
    EXPECT_EQ(densenet121(1).layerInstances(), 120);
    EXPECT_EQ(yolov2(1).layerInstances(), 23);
}

TEST(ModelZoo, VggFlopsMatchPublishedScale)
{
    // VGG16 convolutions: ~30.7 GFLOPs (2 flops/MAC) at batch 1.
    const double gflops =
        static_cast<double>(vgg16(1).totalFlops()) / 1e9;
    EXPECT_NEAR(gflops, 30.7, 1.5);
}

TEST(ModelZoo, ResNetFlopsMatchPublishedScale)
{
    // ResNet-50 convolutions: ~7.7 GFLOPs at batch 1 (conv-only, with
    // projection shortcuts).
    const double gflops =
        static_cast<double>(resnet50(1).totalFlops()) / 1e9;
    EXPECT_NEAR(gflops, 7.7, 0.8);
}

TEST(ModelZoo, BatchScalesLinearly)
{
    const Flops f1 = resnet50(1).totalFlops();
    const Flops f8 = resnet50(8).totalFlops();
    EXPECT_EQ(f8, 8 * f1);
}

TEST(ModelZoo, LoweredBytesExceedInputBytes)
{
    // Table I: the lowered matrix is always larger than the IFMaps.
    for (const auto &model : allModels(1)) {
        EXPECT_GT(model.totalLoweredBytes(), model.totalInputBytes())
            << model.name;
    }
}

TEST(ModelZoo, DenseNetChannelGrowthIsCorrect)
{
    const ModelSpec m = densenet121(1);
    // The last dense layer of block 4 takes 64+ (6+12+24)/... channel
    // bookkeeping: final 1x1 input channels = 512 + 15*32 = 992.
    bool found = false;
    for (const auto &l : m.layers) {
        if (l.name == "dense4.16.1x1") {
            EXPECT_EQ(l.params.inChannels, 992);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(RepresentativeLayers, MatchPaperNamingScheme)
{
    const auto layers = resnetRepresentativeLayers(8);
    ASSERT_EQ(layers.size(), 6u);
    EXPECT_EQ(layers[0].name, "56,64,64,3");
    EXPECT_EQ(layers[0].params.inH, 56);
    EXPECT_EQ(layers[0].params.inChannels, 64);
    EXPECT_EQ(layers[0].params.kernelH, 3);
}

TEST(StridedLayers, AllHaveStrideAboveOne)
{
    const auto layers = stridedLayers(8);
    EXPECT_GT(layers.size(), 5u);
    for (const auto &l : layers)
        EXPECT_GT(l.params.strideH, 1) << l.name;
}

} // namespace
} // namespace cfconv::models
