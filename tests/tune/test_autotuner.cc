/** @file Tests for the design-space autotuner (tune/autotuner): the
 *  built-in spaces, the search's winner and tie-break, thread-count
 *  determinism, database fast-path, and model aggregation. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "models/model_zoo.h"
#include "tune/autotuner.h"
#include "tune/tuned_db.h"

namespace cfconv::tune {
namespace {

using tensor::makeConv;

models::ConvLayerSpec
layerOf(const char *name, tensor::ConvParams params, Index count = 1,
        Index groups = 1)
{
    models::ConvLayerSpec layer;
    layer.name = name;
    layer.params = params;
    layer.count = count;
    layer.groups = groups;
    return layer;
}

TEST(KnobSpace, BuiltinSpacesListEachVariantOnceWithTheirStockBaseline)
{
    const std::pair<KnobSpace, std::string> spaces[] = {
        {tpuKnobSpace(), "tpu-v2"},
        {gpuKnobSpace(), "gpu-v100"},
    };
    for (const auto &[space, stock] : spaces) {
        const std::set<std::string> distinct(space.variants.begin(),
                                             space.variants.end());
        EXPECT_EQ(distinct.size(), space.points()) << stock;
        EXPECT_EQ(distinct.count(stock), 1u) << stock;
    }
    // array {64,128,256} x word {4,8,16} x algorithm {3}; kernel {5} x
    // effort {stock, vendor}.
    EXPECT_EQ(tpuKnobSpace().points(), 27u);
    EXPECT_EQ(gpuKnobSpace().points(), 10u);
}

TEST(KnobSpace, BuiltinGridsNameOnlyRegisteredVariants)
{
    for (const KnobSpace &space : {tpuKnobSpace(), gpuKnobSpace()})
        for (const auto &name : space.variants) {
            const sim::VariantSpec *spec = sim::findVariant(name);
            ASSERT_NE(spec, nullptr) << name;
            EXPECT_EQ(spec->backend, space.family) << name;
        }
}

TEST(Autotuner, CreateRejectsUnregisteredGridPoints)
{
    KnobSpace space = tpuKnobSpace();
    space.variants[0] = "tpu-v9-imaginary";
    EXPECT_FALSE(Autotuner::create(space).ok());
    // A space of the other family's variants, or of none, is refused.
    space = gpuKnobSpace();
    space.family = sim::Backend::Tpu;
    EXPECT_FALSE(Autotuner::create(space).ok());
    EXPECT_FALSE(Autotuner::create(KnobSpace{}).ok());
}

TEST(Autotuner, ExhaustiveFindsTheGridMinimum)
{
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TuneOptions options;
    options.baseline = "tpu-v2";

    const auto layer = layerOf("conv3", makeConv(8, 128, 28, 128, 3, 1, 1));
    const auto choice = tuner->tuneLayer(layer, options);
    ASSERT_TRUE(choice.ok()) << choice.status().toString();

    // The reported winner must actually be the minimum over every
    // candidate, measured independently.
    double best = 0.0;
    std::string bestName;
    for (const auto &name : tuner->space().variants) {
        const auto accel = sim::makeAccelerator(name);
        const double seconds = accel->runLayer(layer.params).seconds;
        if (bestName.empty() || seconds < best) {
            best = seconds;
            bestName = name;
        }
    }
    EXPECT_EQ(choice.value().variant, bestName);
    EXPECT_DOUBLE_EQ(choice.value().tunedSeconds, best);
    EXPECT_LE(choice.value().tunedSeconds,
              choice.value().baselineSeconds);
    EXPECT_GE(choice.value().speedup(), 1.0);
}

TEST(Autotuner, ChoiceIsIndependentOfThreadCount)
{
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TuneOptions options;
    options.baseline = "tpu-v2";
    const auto layer =
        layerOf("conv4", makeConv(4, 256, 14, 256, 3, 2, 1));

    parallel::setThreads(1);
    const auto serial = tuner->tuneLayer(layer, options).value();
    parallel::setThreads(4);
    const auto threaded = tuner->tuneLayer(layer, options).value();
    parallel::setThreads(1);

    EXPECT_EQ(serial.variant, threaded.variant);
    EXPECT_DOUBLE_EQ(serial.tunedSeconds, threaded.tunedSeconds);
    EXPECT_DOUBLE_EQ(serial.baselineSeconds, threaded.baselineSeconds);
}

TEST(Autotuner, TiesGoToTheFirstListedVariant)
{
    // The word size does not move the C_I = 3 stem: the three 64x64
    // arrays tie at the minimum. The built-in space lists word 4 first;
    // any other order picks whichever of the three it lists first.
    const auto layer = layerOf("stem", makeConv(8, 3, 224, 64, 7, 2, 3));
    const std::vector<std::string> tied = {
        "tpu-v2-a64-w16", "tpu-v2-64x64", "tpu-v2-a64-w4"};
    const double seconds =
        sim::makeAccelerator(tied[0])->runLayer(layer.params).seconds;
    for (const std::string &name : tied)
        ASSERT_EQ(sim::makeAccelerator(name)->runLayer(layer.params).seconds,
                  seconds)
            << name;

    TuneOptions options;
    options.baseline = "tpu-v2";
    auto builtin = Autotuner::create(tpuKnobSpace()).value();
    EXPECT_EQ(builtin->tuneLayer(layer, options).value().variant,
              "tpu-v2-a64-w4");
    for (size_t first = 0; first < tied.size(); ++first) {
        KnobSpace space;
        space.variants = {"tpu-v2"};
        for (size_t i = 0; i < tied.size(); ++i)
            space.variants.push_back(tied[(first + i) % tied.size()]);
        auto tuner = Autotuner::create(space).value();
        const auto choice = tuner->tuneLayer(layer, options).value();
        EXPECT_EQ(choice.variant, tied[first]);
        EXPECT_EQ(choice.tunedSeconds, seconds);
    }
}

TEST(Autotuner, DatabaseHitSkipsTheSearch)
{
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TunedConfigDb db;
    TuneOptions options;
    options.baseline = "tpu-v2";
    options.db = &db;
    const auto layer =
        layerOf("conv2", makeConv(8, 64, 56, 64, 3, 1, 1), 3);

    const auto fresh = tuner->tuneLayer(layer, options).value();
    EXPECT_FALSE(fresh.fromDb);
    EXPECT_EQ(db.size(), 1u);

    const auto hit = tuner->tuneLayer(layer, options).value();
    EXPECT_TRUE(hit.fromDb);
    EXPECT_EQ(hit.evaluations, 0);
    EXPECT_EQ(hit.variant, fresh.variant);
    EXPECT_DOUBLE_EQ(hit.tunedSeconds, fresh.tunedSeconds);
    EXPECT_DOUBLE_EQ(hit.baselineSeconds, fresh.baselineSeconds);
    EXPECT_EQ(hit.count, layer.count);
}

TEST(Autotuner, DatabaseHitRequiresTheSameBaseline)
{
    auto tuner = Autotuner::create(gpuKnobSpace()).value();
    TunedConfigDb db;
    TuneOptions options;
    options.baseline = "gpu-v100";
    options.db = &db;
    const auto layer =
        layerOf("conv5", makeConv(8, 512, 7, 512, 3, 1, 1));

    ASSERT_TRUE(tuner->tuneLayer(layer, options).ok());
    // A different baseline means the stored entry's relative numbers
    // do not answer the question; the tuner must re-search.
    options.baseline = "gpu-v100-cudnn";
    const auto other = tuner->tuneLayer(layer, options).value();
    EXPECT_FALSE(other.fromDb);
}

TEST(Autotuner, LayersThatDifferOnlyAlongWAreTunedApart)
{
    // Same strideH, padH and dilationH and the same 55x55 output, but
    // a different strideW and padW: neither the tune cache nor the
    // database may answer the second layer with the first one's times.
    const auto square = layerOf(
        "square", tensor::makeConvRect(64, 128, 57, 57, 128, 3, 3, 1, 1,
                                       0, 0));
    const auto wide = layerOf(
        "wide", tensor::makeConvRect(64, 128, 57, 57, 128, 3, 3, 1, 2,
                                     0, 27));
    ASSERT_EQ(square.params.outW(), wide.params.outW());
    const double direct = sim::makeAccelerator("gpu-v100-cudnn")
                              ->runLayer(wide.params)
                              .seconds;

    auto tuner = Autotuner::create(gpuKnobSpace()).value();
    TuneOptions options;
    options.baseline = "gpu-v100-cudnn";
    ASSERT_TRUE(tuner->tuneLayer(square, options).ok());
    const auto searched = tuner->tuneLayer(wide, options).value();
    EXPECT_GT(searched.evaluations, 0);
    EXPECT_EQ(searched.baselineSeconds, direct);

    TunedConfigDb db;
    options.db = &db;
    ASSERT_TRUE(tuner->tuneLayer(square, options).ok());
    const auto stored = tuner->tuneLayer(wide, options).value();
    EXPECT_FALSE(stored.fromDb);
    EXPECT_EQ(stored.baselineSeconds, direct);
    EXPECT_EQ(db.size(), 2u);
}

TEST(Autotuner, UnsupportedAlgorithmsNeverWin)
{
    // SMM-Conv rejects strided layers; on a stride-2 shape the search
    // must skip every smm variant (scored +infinity, never simulated)
    // and still land on a finite winner.
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TuneOptions options;
    options.baseline = "tpu-v2";
    const auto layer =
        layerOf("strided", makeConv(4, 64, 28, 64, 3, 2, 1));
    const auto choice = tuner->tuneLayer(layer, options).value();
    EXPECT_EQ(choice.variant.find("-smm"), std::string::npos)
        << choice.variant;
    EXPECT_GT(choice.tunedSeconds, 0.0);
}

TEST(Autotuner, DatabaseKeysSearchesByBaselineAlgorithm)
{
    // The same geometry tuned from baselines with different lowerings
    // lands in distinct DB entries (family|algorithm|geometry keys).
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TunedConfigDb db;
    TuneOptions options;
    options.baseline = "tpu-v2";
    options.db = &db;
    const auto layer =
        layerOf("conv3", makeConv(8, 128, 28, 128, 3, 1, 1));
    ASSERT_TRUE(tuner->tuneLayer(layer, options).ok());
    options.baseline = "tpu-v2-indirect";
    ASSERT_TRUE(tuner->tuneLayer(layer, options).ok());
    EXPECT_EQ(db.size(), 2u);
    const std::string geometry = layer.params.toString();
    EXPECT_NE(db.find("tpu", "channel-first", geometry, 1), nullptr);
    EXPECT_NE(db.find("tpu", "indirect", geometry, 1), nullptr);
    EXPECT_EQ(db.find("tpu", "smm", geometry, 1), nullptr);
}

TEST(Autotuner, RejectsBaselinesOutsideTheSpace)
{
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TuneOptions options;
    options.baseline = "gpu-v100"; // registered, but not in the space
    const auto layer = layerOf("x", makeConv(1, 8, 8, 8, 3, 1, 1));
    EXPECT_FALSE(tuner->tuneLayer(layer, options).ok());
}

TEST(Autotuner, TuneModelAggregatesLayers)
{
    auto tuner = Autotuner::create(tpuKnobSpace()).value();
    TunedConfigDb db;
    TuneOptions options;
    options.baseline = "tpu-v2";
    options.db = &db;

    const auto model = models::resnet50(8);
    const auto result = tuner->tuneModel(model, options);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const ModelTuneResult &r = result.value();
    EXPECT_EQ(r.model, model.name);
    EXPECT_EQ(r.baseline, "tpu-v2");
    EXPECT_EQ(r.layers.size(), model.layers.size());

    double baselineSum = 0.0, tunedSum = 0.0;
    for (size_t i = 0; i < r.layers.size(); ++i) {
        const LayerTuneChoice &choice = r.layers[i];
        EXPECT_EQ(choice.layerName, model.layers[i].name);
        EXPECT_LE(choice.tunedSeconds, choice.baselineSeconds);
        const double n = static_cast<double>(choice.count);
        baselineSum += choice.baselineSeconds * n;
        tunedSum += choice.tunedSeconds * n;
    }
    EXPECT_DOUBLE_EQ(r.baselineSeconds, baselineSum);
    EXPECT_DOUBLE_EQ(r.tunedSeconds, tunedSum);
    EXPECT_GE(r.speedup(), 1.0);

    // A second pass over the same model is answered entirely from the
    // database: zero fresh evaluations, identical choices.
    const auto again = tuner->tuneModel(model, options).value();
    EXPECT_EQ(again.evaluations, 0);
    EXPECT_EQ(again.dbHits,
              static_cast<Index>(model.layers.size()));
    ASSERT_EQ(again.layers.size(), r.layers.size());
    for (size_t i = 0; i < r.layers.size(); ++i) {
        EXPECT_EQ(again.layers[i].variant, r.layers[i].variant);
        EXPECT_DOUBLE_EQ(again.layers[i].tunedSeconds,
                         r.layers[i].tunedSeconds);
    }
    EXPECT_DOUBLE_EQ(again.tunedSeconds, r.tunedSeconds);
}

} // namespace
} // namespace cfconv::tune
