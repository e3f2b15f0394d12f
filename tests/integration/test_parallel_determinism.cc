/**
 * @file
 * Determinism gate for the parallel execution paths: every parallelized
 * functional kernel must be bit-exact with its serial execution
 * (CFCONV_THREADS=1), and the layer memo cache must be invisible to
 * results. Run via scripts/check_threads.sh at 1, 2, and N threads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "conv/algorithm.h"
#include "gpusim/kernel_cache.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "tensor/conv_ref.h"
#include "tensor/gemm.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"
#include "tpusim/layer_cache.h"
#include "tpusim/tpu_sim.h"

namespace cfconv {
namespace {

using tensor::makeConv;

/** Run @p fn serially and at 4 lanes; return both results. */
template <typename Fn>
auto
serialAndParallel(Fn &&fn)
{
    parallel::setThreads(1);
    auto serial = fn();
    parallel::setThreads(4);
    auto par = fn();
    parallel::setThreads(0);
    return std::make_pair(std::move(serial), std::move(par));
}

void
expectBitExact(const tensor::Matrix &a, const tensor::Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<size_t>(
                                              a.rows() * a.cols())),
              0);
}

void
expectBitExact(const tensor::Tensor &a, const tensor::Tensor &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) *
                              static_cast<size_t>(a.size())),
              0);
}

class ParallelDeterminism : public ::testing::Test
{
  protected:
    void TearDown() override { parallel::setThreads(0); }
};

TEST_F(ParallelDeterminism, GemmBitExact)
{
    tensor::Matrix a(73, 41), b(41, 57);
    a.fillRandom(1);
    b.fillRandom(2);
    auto [serial, par] = serialAndParallel([&] {
        tensor::Matrix c(73, 57);
        tensor::gemm(a, b, c);
        return c;
    });
    expectBitExact(serial, par);
}

TEST_F(ParallelDeterminism, GemmAccumulateBitExact)
{
    tensor::Matrix a(64, 32), b(32, 48);
    a.fillRandom(3);
    b.fillRandom(4);
    auto [serial, par] = serialAndParallel([&] {
        tensor::Matrix c(64, 48);
        c.fillRandom(5); // accumulate on top of a non-zero C
        tensor::microkernelGemm(64, 48, 32, a.data(), 32, b.data(), 48,
                                c.data(), 48, true);
        return c;
    });
    expectBitExact(serial, par);
}

TEST_F(ParallelDeterminism, GemmBlockedBitExact)
{
    // k = 600: each element is one 600-step chain in a single tile.
    tensor::Matrix a(100, 600), b(600, 60);
    a.fillRandom(6);
    b.fillRandom(7);
    auto [serial, par] = serialAndParallel([&] {
        tensor::Matrix c(100, 60);
        tensor::gemm(a, b, c);
        return c;
    });
    expectBitExact(serial, par);
}

TEST_F(ParallelDeterminism, DirectConvBitExact)
{
    const auto p = makeConv(2, 16, 14, 24, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(8);
    filter.fillRandom(9);
    auto [serial, par] = serialAndParallel(
        [&] { return tensor::convDirect(p, input, filter); });
    expectBitExact(serial, par);
}

TEST_F(ParallelDeterminism, ImplicitConvBitExact)
{
    const auto p = makeConv(2, 8, 14, 16, 3, 2, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(10);
    filter.fillRandom(11);
    const conv::Algorithm *channel_first =
        conv::findAlgorithm(conv::AlgorithmId::ChannelFirst);
    auto [serial, par] = serialAndParallel(
        [&] { return channel_first->execute(p, input, filter); });
    expectBitExact(serial, par);
}

TEST_F(ParallelDeterminism, Im2colLowerBitExact)
{
    const auto p = makeConv(2, 12, 13, 20, 3, 2, 1);
    tensor::Tensor input = tensor::makeInput(p);
    input.fillRandom(12);
    auto [serial, par] = serialAndParallel([&] {
        return tensor::im2colLower(p, input,
                                   tensor::ColumnOrder::ChannelFirst);
    });
    expectBitExact(serial, par);
}

void
expectSameResult(const tpusim::TpuLayerResult &a,
                 const tpusim::TpuLayerResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.tflops, b.tflops);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.multiTile, b.multiTile);
    EXPECT_EQ(a.portUtilization, b.portUtilization);
    EXPECT_EQ(a.peakOnChipBytes, b.peakOnChipBytes);
    EXPECT_EQ(a.vecMemOps, b.vecMemOps);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.fillCycles, b.fillCycles);
    EXPECT_EQ(a.exposedFillCycles, b.exposedFillCycles);
}

TEST_F(ParallelDeterminism, CachedRunConvMatchesUncached)
{
    auto &cache = tpusim::LayerCache::instance();
    const bool was_enabled = cache.enabled();
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    const auto p = makeConv(8, 64, 28, 128, 3, 1, 1);

    cache.setEnabled(false);
    const auto uncached = sim.runConv(p);

    cache.setEnabled(true);
    cache.clear();
    const auto miss = sim.runConv(p); // cold: computes and inserts
    const auto hit = sim.runConv(p);  // warm: served from the cache
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entries(), 1u);

    expectSameResult(uncached, miss);
    expectSameResult(uncached, hit);

    cache.clear();
    cache.setEnabled(was_enabled);
}

TEST_F(ParallelDeterminism, DisabledCachesLeaveModelRecordsUnchanged)
{
    // Turning both memo caches off through setEnabled(false) changes
    // no byte of a model's RunRecord document: uncached, cold-cache
    // and warm-cache runs serialize alike on every backend family.
    auto &layers = tpusim::LayerCache::instance();
    auto &kernels = gpusim::KernelCache::instance();
    const bool layers_were = layers.enabled();
    const bool kernels_were = kernels.enabled();
    const models::ModelSpec model = models::resnet50(2);
    for (const char *name :
         {"tpu-v2", "tpu-v3ish", "gpu-v100", "gpu-v100-cudnn"}) {
        const auto accelerator = sim::makeAccelerator(name);
        const auto document = [&] {
            return sim::runRecordsJson(
                {sim::ModelRunner(*accelerator).runModel(model)},
                sim::ReportMeta{});
        };
        layers.setEnabled(false);
        kernels.setEnabled(false);
        const std::string uncached = document();
        layers.setEnabled(true);
        kernels.setEnabled(true);
        layers.clear();
        kernels.clear();
        const std::string cold = document();
        const auto hits = layers.hits() + kernels.hits();
        const std::string warm = document();
        EXPECT_GT(layers.hits() + kernels.hits(), hits) << name;
        EXPECT_EQ(uncached, cold) << name;
        EXPECT_EQ(uncached, warm) << name;
    }
    layers.setEnabled(layers_were);
    kernels.setEnabled(kernels_were);
}

TEST_F(ParallelDeterminism, CacheKeySeparatesDifferentRuns)
{
    const auto cfg = tpusim::TpuConfig::tpuV2();
    const auto p = makeConv(8, 64, 28, 128, 3, 1, 1);
    tpusim::TpuRunOptions a, b;
    b.multiTileOverride = 2;
    EXPECT_NE(tpusim::layerCacheKey(cfg, p, a),
              tpusim::layerCacheKey(cfg, p, b));
    auto cfg2 = cfg;
    cfg2.array.rows = 256;
    EXPECT_NE(tpusim::layerCacheKey(cfg, p, a),
              tpusim::layerCacheKey(cfg2, p, a));
    EXPECT_NE(tpusim::layerCacheKey(cfg, p, a),
              tpusim::gemmCacheKey(cfg, p.gemmM(), p.gemmK(),
                                   p.gemmN(), p.dataType));
}

TEST_F(ParallelDeterminism, RunModelParallelMatchesSerial)
{
    const auto accelerator = sim::makeAccelerator("tpu-v2");
    const auto model = models::resnet50(4);
    auto &cache = tpusim::LayerCache::instance();
    const bool was_enabled = cache.enabled();
    // Disable the cache so both runs do the full computation.
    cache.setEnabled(false);
    auto [serial, par] = serialAndParallel(
        [&] { return sim::ModelRunner(*accelerator).runModel(model); });
    cache.setEnabled(was_enabled);
    EXPECT_EQ(serial.seconds, par.seconds);
    EXPECT_EQ(serial.tflops, par.tflops);
    EXPECT_EQ(serial.dramBytes, par.dramBytes);
    ASSERT_EQ(serial.layers.size(), par.layers.size());
    for (size_t i = 0; i < serial.layers.size(); ++i) {
        const sim::LayerRecord &a = serial.layers[i];
        const sim::LayerRecord &b = par.layers[i];
        EXPECT_EQ(a.seconds, b.seconds) << "layer " << i;
        EXPECT_EQ(a.tflops, b.tflops) << "layer " << i;
        EXPECT_EQ(a.utilization, b.utilization) << "layer " << i;
        EXPECT_EQ(a.dramBytes, b.dramBytes) << "layer " << i;
        EXPECT_EQ(a.extras, b.extras) << "layer " << i;
    }
}

} // namespace
} // namespace cfconv
