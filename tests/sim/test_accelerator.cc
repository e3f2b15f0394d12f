/** @file Tests for the unified sim::Accelerator layer: factory,
 *  adapter parity with the raw simulators, grouped-conv slicing, and
 *  memo-cache key fidelity across backend run options. */

#include <gtest/gtest.h>

#include "gpusim/gpu_sim.h"
#include "gpusim/kernel_cache.h"
#include "sim/gpu_accelerator.h"
#include "sim/tpu_accelerator.h"
#include "sim/variants.h"
#include "tpusim/layer_cache.h"
#include "tpusim/tpu_sim.h"

namespace cfconv::sim {
namespace {

using tensor::makeConv;

TEST(AcceleratorFactory, KnownBackendsConstructAndSelfReport)
{
    ASSERT_GE(variantSpecs().size(), 4u);
    for (const VariantSpec &spec : variantSpecs()) {
        const auto accelerator = makeAccelerator(spec.name);
        ASSERT_NE(accelerator, nullptr) << spec.name;
        EXPECT_EQ(accelerator->name(), spec.name);
        EXPECT_GT(accelerator->peakTflops(), 0.0) << spec.name;
    }
}

TEST(AcceleratorFactory, TpuV3ishIsFasterThanV2)
{
    const auto v2 = makeAccelerator("tpu-v2");
    const auto v3 = makeAccelerator("tpu-v3ish");
    EXPECT_GT(v3->peakTflops(), 1.5 * v2->peakTflops());
}

TEST(TpuAdapter, MatchesRawSimulatorExactly)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const tpusim::TpuSim raw((tpusim::TpuConfig::tpuV2()));
    const tpusim::TpuLayerResult expect = raw.runConv(p);

    const TpuAccelerator accelerator("tpu-v2",
                                     tpusim::TpuConfig::tpuV2());
    const LayerRecord got = accelerator.runLayer(p);
    EXPECT_DOUBLE_EQ(got.seconds, expect.seconds);
    EXPECT_DOUBLE_EQ(got.tflops, expect.tflops);
    // On one MXU, tflops / peak is the MACs over the array's capacity
    // in the layer's cycles.
    const tpusim::TpuConfig cfg = tpusim::TpuConfig::tpuV2();
    EXPECT_DOUBLE_EQ(got.utilization,
                     static_cast<double>(p.flops()) / 2.0 /
                         (static_cast<double>(expect.cycles) *
                          static_cast<double>(cfg.array.rows) *
                          static_cast<double>(cfg.array.cols)));
    EXPECT_EQ(got.dramBytes, expect.dramBytes);
    EXPECT_EQ(got.flops, p.flops());
    EXPECT_EQ(got.geometry, p.toString());
    // The TPU-only fields ride along in extras.
    EXPECT_EQ(static_cast<Index>(got.extras.at("multiTile")),
              expect.multiTile);
    EXPECT_GT(got.extras.at("pjPerMac"), 0.0);
    EXPECT_GE(got.extras.at("exposedFillFrac"), 0.0);
    EXPECT_LE(got.extras.at("exposedFillFrac"), 1.0);
}

TEST(TpuAdapter, GroupedLayerUsesBlockDiagonalPacking)
{
    const auto base = makeConv(8, 32, 14, 32, 3, 1, 1);
    const Index groups = 32; // depthwise
    const tpusim::TpuSim raw((tpusim::TpuConfig::tpuV2()));
    const tpusim::TpuLayerResult expect =
        raw.runGroupedConv(base, groups);

    const TpuAccelerator accelerator("tpu-v2",
                                     tpusim::TpuConfig::tpuV2());
    RunOptions options;
    options.groups = groups;
    const LayerRecord got = accelerator.runLayer(base, options);
    EXPECT_DOUBLE_EQ(got.seconds, expect.seconds);
    EXPECT_EQ(got.groups, groups);
}

TEST(GpuAdapter, MatchesRawSimulatorExactly)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const gpusim::GpuSim raw((gpusim::GpuConfig::v100()));
    const gpusim::GpuKernelResult expect = raw.runConv(p);

    const GpuAccelerator accelerator("gpu-v100",
                                     gpusim::GpuConfig::v100());
    const LayerRecord got = accelerator.runLayer(p);
    EXPECT_DOUBLE_EQ(got.seconds, expect.seconds);
    EXPECT_EQ(got.dramBytes, expect.dramBytes);
    EXPECT_EQ(got.extras.at("memoryBound") != 0.0,
              expect.memoryBound);
    EXPECT_DOUBLE_EQ(got.extras.at("computeSeconds"),
                     expect.computeSeconds);
}

TEST(GpuAdapter, GroupedLayerRunsOneKernelPerSlice)
{
    const auto params = makeConv(8, 32, 14, 32, 3, 1, 1);
    const Index groups = 32;
    const gpusim::GpuSim raw((gpusim::GpuConfig::v100()));
    const gpusim::GpuKernelResult slice =
        raw.runConv(makeConv(8, 1, 14, 1, 3, 1, 1));

    const GpuAccelerator accelerator("gpu-v100",
                                     gpusim::GpuConfig::v100());
    RunOptions options;
    options.groups = groups;
    const LayerRecord got = accelerator.runLayer(params, options);
    EXPECT_DOUBLE_EQ(got.seconds,
                     slice.seconds * static_cast<double>(groups));
    EXPECT_EQ(got.flops, params.flops() / groups);
    // The record describes the full layer, not the slice.
    EXPECT_EQ(got.geometry, params.toString());
}

// --- memo-cache key fidelity -------------------------------------
// Equal keys must imply equal inputs: run options that change the
// timing result must never share a cache entry.

TEST(CacheKeys, GpuInterTileReuseGetsDistinctEntries)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const auto config = gpusim::GpuConfig::v100();
    gpusim::GpuRunOptions reuse_on, reuse_off;
    reuse_off.interTileReuse = false;

    const std::string key_on =
        gpusim::kernelCacheKey(config, p, reuse_on);
    const std::string key_off =
        gpusim::kernelCacheKey(config, p, reuse_off);
    EXPECT_NE(key_on, key_off);
    // Same inputs, same key (the cache would be useless otherwise).
    EXPECT_EQ(key_on, gpusim::kernelCacheKey(config, p, reuse_on));

    // Behavioural check against the live cache: an entry inserted
    // under one option set must not satisfy the other.
    auto &cache = gpusim::KernelCache::instance();
    cache.clear();
    const gpusim::GpuSim sim(config);
    const auto r_on = sim.runConv(p, reuse_on);
    const auto r_off = sim.runConv(p, reuse_off);
    gpusim::GpuKernelResult hit;
    EXPECT_TRUE(cache.lookup(key_on, &hit));
    EXPECT_EQ(hit.dramBytes, r_on.dramBytes);
    EXPECT_TRUE(cache.lookup(key_off, &hit));
    EXPECT_EQ(hit.dramBytes, r_off.dramBytes);
    // The reordering changes the DRAM traffic (this shape stays
    // compute-bound, so seconds coincide) — sharing an entry would
    // have been an observable bug, not just a key nicety.
    EXPECT_NE(r_on.dramBytes, r_off.dramBytes);
}

TEST(CacheKeys, GpuVendorTunedChangesKey)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const auto config = gpusim::GpuConfig::v100();
    gpusim::GpuRunOptions stock, tuned;
    tuned.vendorTuned = true;
    EXPECT_NE(gpusim::kernelCacheKey(config, p, stock),
              gpusim::kernelCacheKey(config, p, tuned));
    EXPECT_NE(gpusim::gpuGemmCacheKey(config, 512, 512, 512, false,
                                      true),
              gpusim::gpuGemmCacheKey(config, 512, 512, 512, true,
                                      true));
}

TEST(CacheKeys, TpuMultiTileOverrideGetsDistinctEntries)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    const auto config = tpusim::TpuConfig::tpuV2();
    tpusim::TpuRunOptions inferred, forced;
    forced.multiTileOverride = 1; // disable multi-tile

    const std::string key_a =
        tpusim::layerCacheKey(config, p, inferred);
    const std::string key_b = tpusim::layerCacheKey(config, p, forced);
    EXPECT_NE(key_a, key_b);
    EXPECT_EQ(key_a, tpusim::layerCacheKey(config, p, inferred));

    auto &cache = tpusim::LayerCache::instance();
    cache.clear();
    const tpusim::TpuSim sim(config);
    const auto r_a = sim.runConv(p, inferred);
    const auto r_b = sim.runConv(p, forced);
    tpusim::TpuLayerResult hit;
    EXPECT_TRUE(cache.lookup(key_a, &hit));
    EXPECT_DOUBLE_EQ(hit.seconds, r_a.seconds);
    EXPECT_TRUE(cache.lookup(key_b, &hit));
    EXPECT_DOUBLE_EQ(hit.seconds, r_b.seconds);
    EXPECT_NE(r_a.multiTile, r_b.multiTile);
}

TEST(CacheKeys, ConfigChangesKey)
{
    const auto p = makeConv(8, 64, 56, 64, 3, 1, 1);
    EXPECT_NE(tpusim::layerCacheKey(tpusim::TpuConfig::tpuV2(), p, {}),
              tpusim::layerCacheKey(tpusim::TpuConfig::tpuV3ish(), p,
                                    {}));
}

} // namespace
} // namespace cfconv::sim
