/** @file The paper's invariants as properties of every named
 *  variant, not goldens of the stock four: a record's FLOPs, TFLOPS
 *  and utilization agree with its layer, its time and its peak; each
 *  PE row reads one single-port vector memory; a layer's time
 *  breakdown has no negative part and sums to its time; no layer
 *  beats its memory roofline; weights and pointer tables always cross
 *  DRAM, and a streamed layer moves at least its compulsory traffic
 *  while a resident TPU layer moves nothing else (Sec. IV-B); the
 *  implicit schemes never write a workspace, IndirectConv pays exactly its
 *  pointer table and the waste-free GPU feeds move exactly the traffic
 *  model (Table I); explicit never beats channel-last; SMM-Conv runs
 *  exactly the unit-stride layers; channel-first TPU streams shrink by
 *  stride^2 with the GEMM rows (Fig 4b); the paper's multi-tile count
 *  is the fastest up to W_F (Fig 14b); better hardware never slows a
 *  layer; and a seeded random layer, degenerate fields included, yields
 *  a record or an INVALID_ARGUMENT that names the field. */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "conv/algorithm.h"
#include "dram/dram_model.h"
#include "gpusim/gpu_sim.h"
#include "im2col/filter_decomp.h"
#include "sim/accelerator.h"
#include "sim/variants.h"
#include "tpusim/tpu_sim.h"

#include "../common/model_layers.h"

namespace cfconv {
namespace {

using conv::AlgorithmId;
using sim::LayerRecord;
using sim::RunOptions;
using tensor::ConvParams;
using tensor::makeConv;
using sim::Backend;
using sim::VariantSpec;

/** The lowering scheme @p spec runs. */
AlgorithmId
algorithmOf(const VariantSpec &spec)
{
    return spec.backend == Backend::Tpu ? spec.tpuOptions.algorithm
                                        : spec.gpuOptions.algorithm;
}

/** @p spec with its lowering scheme replaced by @p id. */
VariantSpec
withAlgorithm(VariantSpec spec, AlgorithmId id)
{
    spec.tpuOptions.algorithm = id;
    spec.gpuOptions.algorithm = id;
    return spec;
}

/** Peak DRAM bandwidth of @p spec in bytes per second. */
double
dramBytesPerSecond(const VariantSpec &spec)
{
    const dram::DramConfig &dram = spec.backend == Backend::Tpu
        ? spec.tpuConfig.dram
        : spec.gpuConfig.dram;
    return dram.peakGBps() * 1e9;
}

/** Calls @p fn(spec, layer, record) for every variant's record on every
 *  distinct model layer it accepts. */
template <typename Fn>
void
forEachModelRecord(Fn &&fn)
{
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    for (const VariantSpec &spec : sim::variantSpecs()) {
        const auto accel = sim::makeFromSpec(spec);
        for (const models::ConvLayerSpec &layer : layers) {
            RunOptions options;
            options.groups = layer.groups;
            const StatusOr<LayerRecord> record =
                accel->tryRunLayer(layer.params, options);
            if (record.ok())
                fn(spec, layer, *record);
        }
    }
}

TEST(VariantInvariants, FlopsAreTheLogicalGemmOverGroups)
{
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &layer,
                          const LayerRecord &record) {
        EXPECT_EQ(record.flops, layer.params.flops() /
                                    static_cast<Flops>(layer.groups))
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, UtilizationIsTflopsOverPeak)
{
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &,
                          const LayerRecord &record) {
        const double peak = spec.backend == Backend::Tpu
            ? spec.tpuConfig.peakTflops()
            : spec.gpuConfig.peakTflops();
        EXPECT_DOUBLE_EQ(record.utilization, record.tflops / peak)
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, TflopsIsFlopsOverSeconds)
{
    // Throughput is the layer's own FLOPs over its time, also where the
    // simulator runs a rewritten layer (the space-to-depth stem).
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &,
                          const LayerRecord &record) {
        EXPECT_EQ(record.tflops,
                  static_cast<double>(record.flops) / record.seconds / 1e12)
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, EveryPeRowReadsOneSinglePortVectorMemory)
{
    // Sec. IV, Table II: each PE row has its own single-port vector
    // memory, so a layer never makes more than one word access per
    // memory per cycle, and its port utilization counts array.rows
    // memories over all of its cycles. Every cycle the engines do not
    // compute is exposed fill or invoke overhead: explicit im2col's
    // transform, which nothing overlaps, and every repetition of a
    // grouped layer included.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (spec.backend != Backend::Tpu)
            continue;
        const tpusim::TpuSim sim(spec.tpuConfig);
        const auto memories =
            static_cast<double>(spec.tpuConfig.array.rows);
        for (const models::ConvLayerSpec &layer : layers) {
            if (!conv::findAlgorithm(spec.tpuOptions.algorithm)
                     ->supports(layer.params, layer.groups)
                     .ok())
                continue;
            const tpusim::TpuLayerResult r = sim.runGroupedConv(
                layer.params, layer.groups, spec.tpuOptions);
            const double capacity =
                static_cast<double>(r.cycles) * memories;
            EXPECT_LE(static_cast<double>(r.vecMemOps), capacity)
                << spec.name << " on " << layer.params.toString();
            EXPECT_EQ(r.portUtilization,
                      static_cast<double>(r.vecMemOps) / capacity)
                << spec.name << " on " << layer.params.toString()
                << " groups " << layer.groups;
            const conv::TimeBreakdown &b = r.breakdown;
            EXPECT_EQ(b.exposedFill + b.overhead,
                      static_cast<double>(r.cycles) - b.compute)
                << spec.name << " on " << layer.params.toString()
                << " groups " << layer.groups;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, TimeBreakdownPartsSumToTheTotal)
{
    // Fig 2's time breakdown, read off the run that timed the layer:
    // compute, exposed fill, overhead and stall are never negative and
    // sum to the layer's time. TPU cycles are whole numbers, so their
    // parts sum exactly; a GPU kernel's seconds scale one thread
    // block's total rather than add up its parts, so those sum to
    // rounding.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        const tpusim::TpuSim tpu(spec.tpuConfig);
        const gpusim::GpuSim gpu(spec.gpuConfig);
        for (const models::ConvLayerSpec &layer : layers) {
            if (!conv::findAlgorithm(algorithmOf(spec))
                     ->supports(layer.params, layer.groups)
                     .ok())
                continue;
            const bool on_tpu = spec.backend == Backend::Tpu;
            conv::TimeBreakdown b;
            double total = 0.0;
            if (on_tpu) {
                const tpusim::TpuLayerResult r = tpu.runGroupedConv(
                    layer.params, layer.groups, spec.tpuOptions);
                b = r.breakdown;
                total = static_cast<double>(r.cycles);
            } else {
                const gpusim::GpuKernelResult r = gpu.runConv(
                    tensor::groupSlice(layer.params, layer.groups),
                    spec.gpuOptions);
                b = r.breakdown;
                total = r.seconds;
            }
            const std::string where = spec.name + " on " +
                                      layer.params.toString() +
                                      " groups " +
                                      std::to_string(layer.groups);
            for (const double part : {b.compute, b.fill, b.exposedFill,
                                      b.overhead, b.stall})
                EXPECT_GE(part, 0.0) << where;
            EXPECT_GT(b.steps, 0) << where;
            const double parts =
                b.compute + b.exposedFill + b.overhead + b.stall;
            if (on_tpu)
                EXPECT_EQ(parts, total) << where;
            else
                EXPECT_NEAR(parts, total, 1e-12 * total) << where;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, NoLayerBeatsItsMemoryRoofline)
{
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &,
                          const LayerRecord &record) {
        EXPECT_GE(record.seconds, static_cast<double>(record.dramBytes) /
                                      dramBytesPerSecond(spec))
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, WeightsAndPointerTablesAlwaysCrossDram)
{
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &layer,
                          const LayerRecord &record) {
        const conv::Traffic traffic =
            conv::findAlgorithm(algorithmOf(spec))->traffic(layer.params);
        EXPECT_GE(record.dramBytes,
                  traffic.filterBytes / static_cast<Bytes>(layer.groups) +
                      traffic.metadataBytes)
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, StreamedLayersMoveTheCompulsoryTraffic)
{
    forEachModelRecord([](const VariantSpec &spec,
                          const models::ConvLayerSpec &layer,
                          const LayerRecord &record) {
        if (layer.groups != 1)
            return;
        const ConvParams &p = layer.params;
        if (spec.backend == Backend::Tpu &&
            im2col::inputUnionBytes(p) * 2 <= spec.tpuConfig.onChipBytes)
            return;
        const conv::Traffic traffic =
            conv::findAlgorithm(algorithmOf(spec))->traffic(p);
        EXPECT_GE(record.dramBytes, traffic.inputBytes + traffic.filterBytes +
                                        traffic.outputBytes)
            << spec.name << " on " << record.geometry;
    });
}

TEST(VariantInvariants, ImplicitSchemesNeverWriteAWorkspace)
{
    // Table I: explicit im2col writes the lowered matrix and reads it
    // back; the schemes with no side table stream what they gather and
    // write nothing, so each moves at least one lowered matrix less
    // than its explicit twin.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        const AlgorithmId id = algorithmOf(spec);
        if (id != AlgorithmId::ChannelFirst &&
            id != AlgorithmId::ChannelLast && id != AlgorithmId::Smm)
            continue;
        const auto implicit = sim::makeFromSpec(spec);
        const auto explicit_im2col = sim::makeFromSpec(
            withAlgorithm(spec, AlgorithmId::ExplicitIm2col));
        for (const models::ConvLayerSpec &layer : layers) {
            const ConvParams &p = layer.params;
            if (layer.groups != 1 ||
                !implicit->algorithm()->supports(p, 1).ok())
                continue;
            EXPECT_LE(implicit->runLayer(p).dramBytes + p.loweredBytes(),
                      explicit_im2col->runLayer(p).dramBytes)
                << spec.name << " on " << p.toString();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, IndirectPaysExactlyItsPointerTable)
{
    // SMM-Conv runs the same C_I-deep per-tap plan with no pointers, so
    // on a unit-stride layer the indirect record moves exactly the
    // indirection buffer more than its SMM-Conv twin does.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (algorithmOf(spec) != AlgorithmId::Indirect)
            continue;
        const auto indirect = sim::makeFromSpec(spec);
        const auto smm =
            sim::makeFromSpec(withAlgorithm(spec, AlgorithmId::Smm));
        for (const models::ConvLayerSpec &layer : layers) {
            const ConvParams &p = layer.params;
            if (layer.groups != 1 || !smm->algorithm()->supports(p, 1).ok())
                continue;
            const LayerRecord with = indirect->runLayer(p);
            const LayerRecord without = smm->runLayer(p);
            EXPECT_EQ(with.dramBytes, without.dramBytes +
                                          conv::findAlgorithm(
                                              AlgorithmId::Indirect)
                                              ->traffic(p)
                                              .metadataBytes)
                << spec.name << " on " << with.geometry;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, GpuGathersWithoutWasteMoveTheTrafficModel)
{
    // Pointer and contiguous feeds pay no transaction waste on the GPU,
    // so their records move exactly the backend-neutral traffic model:
    // the input union, filter, OFMap and any pointer table.
    int checked = 0;
    forEachModelRecord([&checked](const VariantSpec &spec,
                                  const models::ConvLayerSpec &layer,
                                  const LayerRecord &record) {
        const AlgorithmId id = algorithmOf(spec);
        if (spec.backend != Backend::Gpu || layer.groups != 1 ||
            (id != AlgorithmId::Indirect && id != AlgorithmId::Smm))
            return;
        EXPECT_EQ(record.dramBytes,
                  conv::findAlgorithm(id)->traffic(layer.params).totalBytes())
            << spec.name << " on " << record.geometry;
        ++checked;
    });
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, ResidentTpuLayersMoveOnlyWeightsAndTables)
{
    // Sec. IV-B: activations that fit the unified memory twice over
    // stay on chip between layers; only weights and side tables cross
    // DRAM.
    int checked = 0;
    forEachModelRecord([&checked](const VariantSpec &spec,
                                  const models::ConvLayerSpec &layer,
                                  const LayerRecord &record) {
        const AlgorithmId id = algorithmOf(spec);
        const ConvParams &p = layer.params;
        if (spec.backend != Backend::Tpu || layer.groups != 1 ||
            id == AlgorithmId::ExplicitIm2col ||
            spec.tpuOptions.spaceToDepthFirstLayer ||
            im2col::inputUnionBytes(p) * 2 > spec.tpuConfig.onChipBytes)
            return;
        const conv::Traffic traffic = conv::findAlgorithm(id)->traffic(p);
        EXPECT_EQ(record.dramBytes,
                  traffic.filterBytes + traffic.metadataBytes)
            << spec.name << " on " << record.geometry;
        ++checked;
    });
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, ExplicitIsNeverFasterThanChannelLast)
{
    // Table I / Fig 2: explicit im2col is channel-last plus a workspace
    // written and read back, so it never finishes first.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (algorithmOf(spec) != AlgorithmId::ExplicitIm2col)
            continue;
        const auto explicit_im2col = sim::makeFromSpec(spec);
        const auto channel_last = sim::makeFromSpec(
            withAlgorithm(spec, AlgorithmId::ChannelLast));
        for (const models::ConvLayerSpec &layer : layers) {
            RunOptions options;
            options.groups = layer.groups;
            EXPECT_GE(explicit_im2col->runLayer(layer.params, options)
                          .seconds,
                      channel_last->runLayer(layer.params, options).seconds)
                << spec.name << " on " << layer.params.toString();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

/** Expects every model layer to run no slower on each variant after
 *  @p upgrade(spec) improves its hardware; @p upgrade returns false for
 *  a variant it does not apply to. "No slower" allows one rounding:
 *  a memory-bound GPU step divides clock-scaled cycles by the clock. */
template <typename Upgrade>
void
expectUpgradeNeverSlower(Upgrade &&upgrade)
{
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    for (const VariantSpec &spec : sim::variantSpecs()) {
        VariantSpec better = spec;
        if (!upgrade(better))
            continue;
        const auto base = sim::makeFromSpec(spec);
        const auto upgraded = sim::makeFromSpec(better);
        for (const models::ConvLayerSpec &layer : layers) {
            RunOptions options;
            options.groups = layer.groups;
            const StatusOr<LayerRecord> was =
                base->tryRunLayer(layer.params, options);
            if (!was.ok())
                continue;
            EXPECT_LE(upgraded->runLayer(layer.params, options).seconds,
                      was->seconds * (1.0 + 1e-12))
                << spec.name << " on " << was->geometry;
        }
    }
}

TEST(VariantInvariants, MoreDramBandwidthNeverSlowsALayer)
{
    expectUpgradeNeverSlower([](VariantSpec &spec) {
        spec.tpuConfig.dram.channels *= 2;
        spec.gpuConfig.dram.channels *= 2;
        return true;
    });
}

TEST(VariantInvariants, ASecondMatrixUnitNeverSlowsALayer)
{
    expectUpgradeNeverSlower([](VariantSpec &spec) {
        spec.tpuConfig.mxus += 1;
        return spec.backend == Backend::Tpu;
    });
}

TEST(VariantInvariants, MoreOnChipMemoryNeverSlowsALayer)
{
    expectUpgradeNeverSlower([](VariantSpec &spec) {
        spec.tpuConfig.onChipBytes *= 2;
        return spec.backend == Backend::Tpu;
    });
}

TEST(VariantInvariants, AFasterClockNeverSlowsALayer)
{
    expectUpgradeNeverSlower([](VariantSpec &spec) {
        spec.tpuConfig.clockGhz *= 1.25;
        spec.gpuConfig.clockGhz *= 1.25;
        return true;
    });
}

TEST(VariantInvariants, SmmRunsExactlyTheUnitStrideLayers)
{
    std::vector<ConvParams> shapes;
    for (const models::ConvLayerSpec &layer : distinctModelLayers())
        shapes.push_back(layer.params);
    shapes.push_back(makeConv(1, 16, 20, 16, 3, 1, 2, /*dilation=*/2));
    shapes.push_back(tensor::makeConvRect(1, 16, 20, 20, 16, 3, 3, 1, 2,
                                          1, 1));
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (algorithmOf(spec) != AlgorithmId::Smm)
            continue;
        const auto accel = sim::makeFromSpec(spec);
        for (const ConvParams &p : shapes) {
            const bool unit = p.strideH == 1 && p.strideW == 1 &&
                              p.dilationH == 1 && p.dilationW == 1;
            const StatusOr<LayerRecord> record = accel->tryRunLayer(p);
            EXPECT_EQ(record.ok(), unit) << spec.name << " on "
                                         << p.toString();
            if (!record.ok()) {
                EXPECT_EQ(record.status().code(),
                          StatusCode::kInvalidArgument);
                EXPECT_NE(record.status().message().find("\"smm\""),
                          std::string::npos)
                    << record.status().toString();
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, ChannelFirstStreamsShrinkByStrideSquared)
{
    // On a layer too big to stay on chip, channel-first's fills (one
    // C_I-deep tile per tap) and its OFMap both scale with the GEMM
    // rows, which fall by stride^2.
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (spec.backend != Backend::Tpu ||
            algorithmOf(spec) != AlgorithmId::ChannelFirst)
            continue;
        const auto accel = sim::makeFromSpec(spec);
        Bytes base = 0;
        Index base_rows = 0;
        // Unpadded 114 -> 112 / s rows, so every tap reads only input,
        // at a batch whose stride-4 input union (the smallest: a 3x3
        // window skips every fourth row and column) does not fit on
        // chip.
        const Bytes image = im2col::inputUnionBytes(
            makeConv(1, 64, 114, 64, 3, 4, 0));
        const Index batch =
            static_cast<Index>(spec.tpuConfig.onChipBytes / (2 * image)) + 1;
        for (const Index s : {1, 2, 4}) {
            const ConvParams p = makeConv(batch, 64, 114, 64, 3, s, 0);
            ASSERT_GT(im2col::inputUnionBytes(p) * 2,
                      spec.tpuConfig.onChipBytes);
            const LayerRecord record = accel->runLayer(p);
            const Bytes streamed = record.dramBytes - p.filterBytes();
            if (s == 1) {
                base = streamed;
                base_rows = p.gemmM();
                continue;
            }
            EXPECT_EQ(p.gemmM() * s * s, base_rows) << p.toString();
            EXPECT_EQ(streamed * static_cast<Bytes>(s * s), base)
                << spec.name << " at stride " << s;
        }
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(VariantInvariants, PaperMultiTileCountIsTheFastestUpToTheFilterWidth)
{
    // Fig 14b: MIN(rows / C_I, W_F) tiles per pass is the best grouping
    // of a shallow layer's taps; no override from one tile up to the
    // W_F taps of one filter row does better. Past W_F, TpuSim merges
    // taps across filter rows at no extra cost and runs faster still,
    // which the paper's one-row tile replication cannot do.
    const std::vector<ConvParams> shallow = {
        makeConv(1, 3, 224, 64, 7, 2, 3),
        makeConv(1, 16, 56, 64, 3, 1, 1),
        makeConv(1, 32, 28, 64, 5, 1, 2),
    };
    int checked = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        if (spec.backend != Backend::Tpu ||
            algorithmOf(spec) != AlgorithmId::ChannelFirst ||
            spec.tpuOptions.spaceToDepthFirstLayer)
            continue;
        const auto paper = sim::makeFromSpec(spec);
        for (const ConvParams &p : shallow) {
            const double best = paper->runLayer(p).seconds;
            for (Index tiles = 1; tiles <= p.kernelW; ++tiles) {
                VariantSpec forced = spec;
                forced.tpuOptions.multiTileOverride = tiles;
                EXPECT_LE(best,
                          sim::makeFromSpec(forced)->runLayer(p).seconds)
                    << spec.name << " on " << p.toString() << " at "
                    << tiles << " tiles";
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

/** One fuzzed layer: a random geometry, its groups, and the field the
 *  fuzzer set out of range on purpose (nullptr when none). */
struct FuzzedLayer
{
    ConvParams params;
    Index groups = 1;
    const char *broken = nullptr;
};

/** A seeded random layer. Half of them get one field set to zero or a
 *  negative value; kernels larger than the padded input and channels
 *  that the groups do not divide also occur on their own. */
FuzzedLayer
randomLayer(Rng &rng)
{
    const auto pick = [&rng](Index lo, Index hi) {
        return lo + static_cast<Index>(
                        rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
    };
    FuzzedLayer layer;
    ConvParams &p = layer.params;
    p.batch = pick(1, 3);
    p.inChannels = pick(1, 40);
    p.inH = pick(1, 30);
    p.inW = pick(1, 30);
    p.outChannels = pick(1, 40);
    p.kernelH = pick(1, 7);
    p.kernelW = pick(1, 7);
    p.padH = pick(0, 3);
    p.padW = pick(0, 3);
    // Half the layers keep unit stride and dilation, so SMM-Conv
    // variants run some too.
    if (rng.below(2) == 0) {
        p.strideH = pick(1, 4);
        p.strideW = pick(1, 4);
        p.dilationH = pick(1, 3);
        p.dilationW = pick(1, 3);
    }
    layer.groups = pick(1, 3);
    if (rng.below(2) == 0) {
        const std::pair<const char *, Index *> fields[] = {
            {"batch", &p.batch},
            {"inChannels", &p.inChannels},
            {"outChannels", &p.outChannels},
            {"inH", &p.inH},
            {"inW", &p.inW},
            {"kernelH", &p.kernelH},
            {"kernelW", &p.kernelW},
            {"strideH", &p.strideH},
            {"strideW", &p.strideW},
            {"dilationH", &p.dilationH},
            {"dilationW", &p.dilationW},
            {"padH", &p.padH},
            {"padW", &p.padW},
        };
        const auto &[name, field] = fields[rng.below(std::size(fields))];
        const bool pad = name[0] == 'p';
        *field = pad ? -pick(1, 2) : -pick(0, 1);
        layer.broken = name;
    }
    return layer;
}

TEST(VariantInvariants, RandomLayersYieldARecordOrInvalidArgument)
{
    // tryRunLayer has two allowed outcomes: a sane record for a layer
    // its front door accepts, or an INVALID_ARGUMENT that names the
    // field the fuzzer broke. A backend error on an accepted layer, or
    // a crash, fails.
    Rng rng(2021);
    std::vector<FuzzedLayer> layers;
    for (int i = 0; i < 60; ++i)
        layers.push_back(randomLayer(rng));
    int records = 0;
    int rejections = 0;
    for (const VariantSpec &spec : sim::variantSpecs()) {
        const auto accel = sim::makeFromSpec(spec);
        for (const FuzzedLayer &layer : layers) {
            const ConvParams &p = layer.params;
            RunOptions options;
            options.groups = layer.groups;
            const StatusOr<LayerRecord> record =
                accel->tryRunLayer(p, options);
            Status accepted = tensor::checkLayer(p, layer.groups);
            if (accepted.ok()) {
                // checkLayer has no output rule: a kernel that fits
                // the padded input leaves at least one output pixel.
                EXPECT_TRUE(p.outH() >= 1 && p.outW() >= 1)
                    << p.toString();
                accepted = accel->algorithm()->supports(p, layer.groups);
            }
            if (!accepted.ok()) {
                ASSERT_FALSE(record.ok()) << spec.name;
                EXPECT_EQ(record.status().code(),
                          StatusCode::kInvalidArgument)
                    << record.status().toString();
                if (layer.broken != nullptr) {
                    EXPECT_NE(record.status().message().find(
                                  std::string(layer.broken) + " = "),
                              std::string::npos)
                        << record.status().toString();
                }
                ++rejections;
                continue;
            }
            ASSERT_TRUE(record.ok())
                << spec.name << ": " << record.status().toString();
            EXPECT_TRUE(std::isfinite(record->seconds) &&
                        record->seconds > 0.0)
                << spec.name << " on " << record->geometry;
            EXPECT_LE(record->utilization, 1.0)
                << spec.name << " on " << record->geometry;
            EXPECT_EQ(record->flops,
                      p.flops() / static_cast<Flops>(layer.groups))
                << spec.name << " on " << record->geometry;
            ++records;
        }
    }
    EXPECT_GT(records, 0);
    EXPECT_GT(rejections, 0);
}

} // namespace
} // namespace cfconv
