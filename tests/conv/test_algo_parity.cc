/** @file Golden-parity suite for the algorithm zoo: every registered
 *  conv::Algorithm against the tensor::conv_ref direct reference over
 *  awkward shapes (stride 2/3, dilation 2, asymmetric padding,
 *  rectangular kernels, 1x1 and 7x7 filters, work-unit edges),
 *  bit-identical at any thread count on every kernel backend, the
 *  per-tap schemes byte-identical to each other and every scheme to
 *  the explicit-GEMM oracle in its column order, blind to the
 *  input's layout (as the reference's two planes are to the operands'),
 *  one validate() error for an unfit layer and a named
 *  dimension for a mismatched operand (in the reference passes,
 *  forward, grouped and backward, too), the same zoo surfaced through
 *  both simulator backends with thread-count-invariant LayerRecords,
 *  and a pinned digest of every named variant's records. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "conv/algorithm.h"
#include "gpusim/kernel_cache.h"
#include "im2col/conv_backward.h"
#include "sim/accelerator.h"
#include "sim/variants.h"
#include "tensor/conv_ref.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"
#include "tensor/tensor.h"
#include "tpusim/layer_cache.h"

#include "../common/determinism.h"
#include "../common/explicit_oracle.h"
#include "../common/model_layers.h"
#include "awkward_shapes.h"

namespace cfconv::conv {
namespace {

using tensor::ConvParams;
using tensor::makeConv;
using tensor::Tensor;

TEST(AlgoParity, EveryAlgorithmMatchesConvDirect)
{
    for (const ConvParams &p : awkwardShapes()) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p);
        input.fillRandom(101);
        filter.fillRandom(103);
        const Tensor ref = tensor::convDirect(p, input, filter);
        for (const Algorithm *algo : allAlgorithms()) {
            if (!algo->supports(p, 1).ok()) {
                // Only SMM-Conv declines shapes in this zoo (non-unit
                // stride/dilation); anything else refusing is a bug.
                EXPECT_EQ(algo->id(), AlgorithmId::Smm)
                    << algo->name() << " refused " << p.toString();
                continue;
            }
            const Tensor out = algo->execute(p, input, filter);
            EXPECT_LT(out.maxAbsDiff(ref), 1e-3f)
                << algo->name() << " on " << p.toString();
        }
    }
}

TEST(AlgoParity, ExecuteIsBitIdenticalAcrossThreadCounts)
{
    for (const ConvParams &p : awkwardShapes()) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p);
        input.fillRandom(101);
        filter.fillRandom(103);
        for (const Algorithm *algo : allAlgorithms()) {
            if (!algo->supports(p, 1).ok())
                continue;
            const auto runWith = [&](Index n) {
                ScopedThreads st(n);
                return algo->execute(p, input, filter);
            };
            const Tensor one = runWith(1);
            // Not "close": identical. The accumulation order must not
            // depend on how parallelFor chunked the rows.
            for (const Index n : {3, 4})
                EXPECT_EQ(one.maxAbsDiff(runWith(n)), 0.0f)
                    << algo->name() << " at " << n << " threads on "
                    << p.toString();
        }
    }
}

TEST(AlgoParity, EveryKernelBackendMatchesConvDirect)
{
    // In-process twin of re-running the suite per CFCONV_KERNEL: every
    // available micro-kernel backend, every algorithm, near convDirect
    // and bit-identical at 1 to 4 threads.
    forEachKernelBackend([](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        for (const ConvParams &p : awkwardShapes()) {
            Tensor input = tensor::makeInput(p);
            Tensor filter = tensor::makeFilter(p);
            input.fillRandom(107);
            filter.fillRandom(109);
            const Tensor ref = tensor::convDirect(p, input, filter);
            for (const Algorithm *algo : allAlgorithms()) {
                if (!algo->supports(p, 1).ok())
                    continue;
                const auto runWith = [&](Index n) {
                    ScopedThreads st(n);
                    return algo->execute(p, input, filter);
                };
                const Tensor one = runWith(1);
                EXPECT_LT(one.maxAbsDiff(ref), 1e-3f)
                    << algo->name() << " (" << kernel << ") on "
                    << p.toString();
                for (const Index n : {2, 3, 4})
                    EXPECT_EQ(one.maxAbsDiff(runWith(n)), 0.0f)
                        << algo->name() << " (" << kernel << ") at " << n
                        << " threads on " << p.toString();
            }
        }
    });
}

TEST(AlgoParity, PerTapSchemesReturnIdenticalBytes)
{
    // Channel-first, IndirectConv and SMM-Conv run the same row-major
    // taps over the same gathered pixels on the one host engine, so
    // they agree bit for bit wherever SMM-Conv applies: at 1 and 4
    // threads, on every available kernel backend.
    forEachKernelBackend([](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        for (const ConvParams &p : awkwardShapes()) {
            Tensor input = tensor::makeInput(p);
            Tensor filter = tensor::makeFilter(p);
            input.fillRandom(113);
            filter.fillRandom(127);
            const Tensor ref = [&] {
                ScopedThreads st(1);
                return findAlgorithm(AlgorithmId::ChannelFirst)
                    ->execute(p, input, filter);
            }();
            for (const AlgorithmId id :
                 {AlgorithmId::ChannelFirst, AlgorithmId::Indirect,
                  AlgorithmId::Smm}) {
                const Algorithm *algo = findAlgorithm(id);
                if (!algo->supports(p, 1).ok())
                    continue;
                for (const Index n : {1, 4}) {
                    ScopedThreads st(n);
                    EXPECT_TRUE(
                        sameBytes(ref, algo->execute(p, input, filter)))
                        << algo->name() << " (" << kernel << ") at " << n
                        << " threads on " << p.toString();
                }
            }
        }
    });
}

TEST(AlgoParity, ImplicitExecuteIsExplicitGemmBytes)
{
    // Implicit lowering changes only the address generation in front of
    // an unchanged GEMM (Sec. III): every execute() returns the bytes of
    // the materialized lowered matrix times gemm() in the same column
    // order, on every backend at 1 and 4 threads. Both run the one
    // pointer-table tile, so this pins the address generation: the
    // independent byte reference is the generic tile's sequential loop
    // (MicrokernelParity.GenericIsTheSequentialLoopBytes). Explicit im2col
    // is channel-last with its lowering hoisted into one workspace, so
    // it owes the channel-last bytes.
    forEachKernelBackend([](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        for (const ConvParams &p : awkwardShapes()) {
            Tensor input = tensor::makeInput(p);
            Tensor filter = tensor::makeFilter(p);
            input.fillRandom(137);
            filter.fillRandom(139);
            const auto explicitGemm = [&](tensor::ColumnOrder order) {
                return tensor::convExplicitIm2col(p, input, filter, order);
            };
            const Tensor channel_first =
                explicitGemm(tensor::ColumnOrder::ChannelFirst);
            const Tensor channel_last =
                explicitGemm(tensor::ColumnOrder::ChannelLast);
            for (const Algorithm *algo : allAlgorithms()) {
                if (!algo->supports(p, 1).ok())
                    continue;
                const AlgorithmId id = algo->id();
                const Tensor &want = id == AlgorithmId::ChannelLast ||
                                             id == AlgorithmId::ExplicitIm2col
                                         ? channel_last
                                         : channel_first;
                for (const Index n : {1, 4}) {
                    ScopedThreads st(n);
                    EXPECT_TRUE(
                        sameBytes(want, algo->execute(p, input, filter)))
                        << algo->name() << " (" << kernel << ") at " << n
                        << " threads on " << p.toString();
                }
            }
        }
    });
}

TEST(AlgoParity, ExecuteIgnoresInputLayout)
{
    // The logical input is what counts: an NHWC, HWCN or CHWN copy of
    // the IFMap gives every execute() the bytes of the NCHW run.
    for (const ConvParams &p : awkwardShapes()) {
        Tensor input = tensor::makeInput(p);
        Tensor filter = tensor::makeFilter(p);
        input.fillRandom(149);
        filter.fillRandom(151);
        for (const Algorithm *algo : allAlgorithms()) {
            if (!algo->supports(p, 1).ok())
                continue;
            const Tensor want = algo->execute(p, input, filter);
            for (const tensor::Layout layout :
                 {tensor::Layout::NHWC, tensor::Layout::HWCN,
                  tensor::Layout::CHWN})
                EXPECT_TRUE(sameBytes(
                    want, algo->execute(p, input.toLayout(layout), filter)))
                    << algo->name() << " on a " << tensor::layoutName(layout)
                    << " input, " << p.toString();
        }
    }
}

TEST(AlgoParity, ConvDirectIsLayoutBlindOnEveryBackend)
{
    // The reference itself: NCHW operands take the vectorized plane (a
    // SAXPY on the active backend), any other layout the per-element
    // plane. Both sum each output in (ci, r, s) order, so they differ
    // only by FMA rounding.
    forEachKernelBackend([](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        for (const ConvParams &p : awkwardShapes()) {
            Tensor input = tensor::makeInput(p);
            Tensor filter = tensor::makeFilter(p);
            input.fillRandom(157);
            filter.fillRandom(163);
            const Tensor want = tensor::convDirect(p, input, filter);
            for (const tensor::Layout layout :
                 {tensor::Layout::NHWC, tensor::Layout::HWCN,
                  tensor::Layout::CHWN}) {
                const Tensor got = tensor::convDirect(
                    p, input.toLayout(layout), filter.toLayout(layout));
                EXPECT_LT(got.maxAbsDiff(want), 1e-3f)
                    << tensor::layoutName(layout) << " operands on "
                    << kernel << ", " << p.toString();
            }
        }
    });
}

TEST(AlgoParity, ConvDirectPlanesAgreeOnANonFiniteWeight)
{
    // One +Inf weight at tap (0, 0) of a pad-1 3x3: every output of its
    // plane adds it times a pixel or a halo zero, so the nine outputs
    // whose tap (0, 0) lies in the padding are Inf * 0 = NaN and the
    // rest of that plane is infinite. Both reference planes and every
    // execute() must agree on which outputs are NaN, infinite or finite.
    const ConvParams p = makeConv(1, 2, 5, 3, 3, 1, 1);
    Tensor input = tensor::makeInput(p);
    Tensor filter = tensor::makeFilter(p);
    input.fillRandom(167);
    filter.fillRandom(173);
    filter.at(0, 0, 0, 0) = std::numeric_limits<float>::infinity();
    const auto classes = [](const Tensor &t) {
        std::string c;
        for (Index i = 0; i < t.size(); ++i)
            c += std::isnan(t.data()[i])   ? 'n'
                 : std::isinf(t.data()[i]) ? 'i'
                                           : 'f';
        return c;
    };
    const std::string want = classes(tensor::convDirect(
        p, input.toLayout(tensor::Layout::NHWC),
        filter.toLayout(tensor::Layout::NHWC)));
    ASSERT_EQ(std::count(want.begin(), want.end(), 'n'), 9) << want;
    forEachKernelBackend([&](tensor::KernelBackend backend) {
        const char *kernel = tensor::kernelBackendName(backend);
        EXPECT_EQ(classes(tensor::convDirect(p, input, filter)), want)
            << "NCHW plane on " << kernel;
        for (const Algorithm *algo : allAlgorithms())
            EXPECT_EQ(classes(algo->execute(p, input, filter)), want)
                << algo->name() << " on " << kernel;
    });
}

TEST(AlgoParity, EveryExecuteRejectsAnUnfitLayer)
{
    // A 5x5 kernel over an unpadded 3x3 input. Every supports() refuses
    // it in checkLayer's words, and every execute() must stop it with
    // ConvParams::validate()'s message (the same words) before it
    // gathers anything.
    ConvParams p;
    p.inChannels = p.outChannels = 4;
    p.inH = p.inW = 3;
    p.kernelH = p.kernelW = 5;
    std::string want;
    try {
        p.validate();
    } catch (const FatalError &e) {
        want = e.what();
    }
    ASSERT_NE(want.find("dilated kernel height = 5 exceeds padded input "
                        "height 3"),
              std::string::npos)
        << want;
    const Tensor input(1, 4, 3, 3);
    const Tensor filter(4, 4, 5, 5);
    for (const Algorithm *algo : allAlgorithms()) {
        EXPECT_EQ(algo->supports(p, 1).message(), want) << algo->name();
        try {
            algo->execute(p, input, filter);
            ADD_FAILURE() << algo->name() << " executed an unfit layer";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), want) << algo->name();
        }
    }
}

/** The layer every operand case below is checked against. */
const ConvParams kOperandLayer = makeConv(2, 4, 6, 4, 3, 1, 1);

/** One operand of kOperandLayer with one wrong dimension, and the
 *  message's words that name the dimension and give its sizes. */
struct OperandCase
{
    const char *operand; ///< "input", "filter" or "grad_out"
    Tensor tensor;
    const char *dim;   ///< e.g. "filter C_I" (a grouped filter's C_I/G)
    const char *sizes; ///< e.g. "is 3 but the layer has 4"
};

std::vector<OperandCase>
operandCases()
{
    const char *input = "input", *filter = "filter", *dy = "grad_out";
    return {
        {input, Tensor(1, 4, 6, 6), "input N", "is 1 but the layer has 2"},
        {input, Tensor(2, 3, 6, 6), "input C_I", "is 3 but the layer has 4"},
        {input, Tensor(2, 4, 7, 6), "input H_I", "is 7 but the layer has 6"},
        {input, Tensor(2, 4, 6, 5), "input W_I", "is 5 but the layer has 6"},
        {filter, Tensor(5, 4, 3, 3), "filter C_O", "is 5 but the layer has 4"},
        {filter, Tensor(4, 3, 3, 3), "filter C_I", "is 3 but the layer has 4"},
        {filter, Tensor(4, 4, 2, 3), "filter H_F", "is 2 but the layer has 3"},
        {filter, Tensor(4, 4, 3, 1), "filter W_F", "is 1 but the layer has 3"},
        {dy, Tensor(1, 4, 6, 6), "grad_out N", "is 1 but the layer has 2"},
        {dy, Tensor(2, 3, 6, 6), "grad_out C_O", "is 3 but the layer has 4"},
        {dy, Tensor(2, 4, 5, 6), "grad_out H_O", "is 5 but the layer has 6"},
        {dy, Tensor(2, 4, 6, 7), "grad_out W_O", "is 7 but the layer has 6"},
    };
}

/** A conv pass over some of the operands: its name, which it takes,
 *  and a call that runs it on (input, filter, grad_out). */
struct OperandDoor
{
    std::string name;
    std::vector<std::string> takes;
    std::function<void(const Tensor &, const Tensor &, const Tensor &)> run;
};

/** Runs every case of operandCases() a door takes through it, the
 *  other operands right, and expects a FatalError naming the dim. */
void
expectEveryMismatchNamed(const std::vector<OperandDoor> &doors)
{
    const Tensor input = tensor::makeInput(kOperandLayer);
    const Tensor filter = tensor::makeFilter(kOperandLayer);
    const Tensor grad_out(2, 4, 6, 6);
    for (const OperandCase &c : operandCases()) {
        for (const OperandDoor &door : doors) {
            if (std::find(door.takes.begin(), door.takes.end(),
                          c.operand) == door.takes.end())
                continue;
            const std::string which = c.operand;
            try {
                door.run(which == "input" ? c.tensor : input,
                         which == "filter" ? c.tensor : filter,
                         which == "grad_out" ? c.tensor : grad_out);
                ADD_FAILURE() << door.name << " accepted a wrong " << c.dim;
            } catch (const FatalError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(c.dim), std::string::npos)
                    << door.name << ": " << what;
                EXPECT_NE(what.find(c.sizes), std::string::npos)
                    << door.name << ": " << what;
            }
        }
    }
}

TEST(AlgoParity, EveryExecuteNamesAMismatchedInputDimension)
{
    std::vector<OperandDoor> doors;
    for (const Algorithm *algo : allAlgorithms())
        doors.push_back({algo->name(), {"input", "filter"},
                         [algo](const Tensor &in, const Tensor &f,
                                const Tensor &) {
                             algo->execute(kOperandLayer, in, f);
                         }});
    expectEveryMismatchNamed(doors);
}

TEST(AlgoParity, EveryReferencePassNamesAMismatchedOperand)
{
    // The passes execute() is checked against, forward and backward,
    // share its operand checks and name the same dimensions (a grouped
    // filter's C_I/G: GroupedConv.RejectsWrongFilterShape).
    const std::vector<OperandDoor> doors = {
        {"convDirect", {"input", "filter"},
         [](const Tensor &in, const Tensor &f, const Tensor &) {
             tensor::convDirect(kOperandLayer, in, f);
         }},
        {"convBackwardDataDirect", {"filter", "grad_out"},
         [](const Tensor &, const Tensor &f, const Tensor &dy) {
             im2col::convBackwardDataDirect(kOperandLayer, dy, f);
         }},
        {"convBackwardDataImplicit", {"filter", "grad_out"},
         [](const Tensor &, const Tensor &f, const Tensor &dy) {
             im2col::convBackwardDataImplicit(kOperandLayer, dy, f);
         }},
        {"convBackwardFilterDirect", {"input", "grad_out"},
         [](const Tensor &in, const Tensor &, const Tensor &dy) {
             im2col::convBackwardFilterDirect(kOperandLayer, in, dy);
         }},
        {"convBackwardFilterImplicit", {"input", "grad_out"},
         [](const Tensor &in, const Tensor &, const Tensor &dy) {
             im2col::convBackwardFilterImplicit(kOperandLayer, in, dy);
         }},
    };
    expectEveryMismatchNamed(doors);
}

/** One accelerator variant per (backend, algorithm) cell, stock cores. */
std::vector<std::string>
matrixVariants()
{
    return {
        "tpu-v2",          "tpu-v2-chlast",     "tpu-v2-explicit",
        "tpu-v2-indirect", "tpu-v2-smm",        "gpu-v100",
        "gpu-v100-chlast", "gpu-v100-explicit", "gpu-v100-indirect",
        "gpu-v100-smm",
    };
}

TEST(AlgoParity, BothBackendsExposeTheRegisteredAlgorithm)
{
    for (const std::string &name : matrixVariants()) {
        const auto accel = sim::makeAccelerator(name);
        const Algorithm *algo = accel->algorithm();
        ASSERT_NE(algo, nullptr) << name;
        // The adapter's algorithm() must point back into the registry,
        // not at a private copy.
        EXPECT_EQ(findAlgorithm(algo->id()), algo) << name;
    }
}

TEST(AlgoParity, LayerRecordsAreThreadCountInvariant)
{
    // Every named variant on the model layers and on a 2-group
    // layer, simulated afresh at 1 and 4 threads. The memo caches are
    // process-wide, so they are emptied before each run; otherwise the
    // second run would only read back the first.
    std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    models::ConvLayerSpec extra;
    extra.params = makeConv(4, 64, 28, 64, 3, 1, 1);
    layers.push_back(extra);
    extra.groups = 2;
    layers.push_back(extra);
    const auto runAll = [&layers](const std::string &name, Index threads) {
        ScopedThreads st(threads);
        tpusim::LayerCache::instance().clear();
        gpusim::KernelCache::instance().clear();
        const auto accel = sim::makeAccelerator(name);
        std::vector<StatusOr<sim::LayerRecord>> records;
        for (const models::ConvLayerSpec &layer : layers) {
            sim::RunOptions options;
            options.groups = layer.groups;
            records.push_back(accel->tryRunLayer(layer.params, options));
        }
        return records;
    };
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const std::string &name = spec.name;
        const auto one = runAll(name, 1);
        const auto four = runAll(name, 4);
        for (size_t i = 0; i < one.size(); ++i) {
            ASSERT_EQ(one[i].ok(), four[i].ok()) << name;
            if (!one[i].ok())
                continue;
            const sim::LayerRecord &a = *one[i];
            const sim::LayerRecord &b = *four[i];
            EXPECT_EQ(a.geometry, b.geometry) << name;
            EXPECT_EQ(a.groups, b.groups) << name;
            EXPECT_EQ(a.seconds, b.seconds) << name << " on " << a.geometry;
            EXPECT_EQ(a.tflops, b.tflops) << name << " on " << a.geometry;
            EXPECT_EQ(a.utilization, b.utilization)
                << name << " on " << a.geometry;
            EXPECT_EQ(a.dramBytes, b.dramBytes)
                << name << " on " << a.geometry;
            EXPECT_EQ(a.flops, b.flops) << name << " on " << a.geometry;
            EXPECT_EQ(a.algorithm, b.algorithm) << name;
            EXPECT_EQ(a.extras, b.extras) << name << " on " << a.geometry;
        }
    }
}

TEST(AlgoParity, EveryVariantRecordNamesItsAlgorithm)
{
    // Every lowering, stock or zoo addition, says which one it ran.
    const auto p = makeConv(4, 64, 28, 64, 3, 1, 1);
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const std::string &name = spec.name;
        const auto accel = sim::makeAccelerator(name);
        EXPECT_EQ(accel->runLayer(p).algorithm,
                  accel->algorithm()->name())
            << name;
    }
}

TEST(AlgoParity, ExplicitRecordsMoveExactlyTheTraffic)
{
    // Transform (IFMap read + workspace write) plus GEMM (workspace
    // read + filter + output): the lowered matrix crosses DRAM twice,
    // on every explicit variant and every ungrouped model layer.
    std::vector<ConvParams> shapes = {makeConv(4, 64, 28, 64, 3, 1, 1)};
    for (const models::ConvLayerSpec &layer : distinctModelLayers())
        if (layer.groups == 1)
            shapes.push_back(layer.params);
    int variants = 0;
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const std::string &name = spec.name;
        const auto accel = sim::makeAccelerator(name);
        if (accel->algorithm()->id() != AlgorithmId::ExplicitIm2col)
            continue;
        for (const ConvParams &p : shapes) {
            ASSERT_EQ(p.dataType, DataType::Fp16);
            const StatusOr<sim::LayerRecord> record = accel->tryRunLayer(p);
            ASSERT_TRUE(record.ok()) << name;
            EXPECT_EQ(record->dramBytes,
                      findAlgorithm(AlgorithmId::ExplicitIm2col)
                          ->traffic(p)
                          .totalBytes())
                << name << " on " << p.toString();
        }
        ++variants;
    }
    // tpu-v2-explicit, gpu-v100-explicit and gpu-v100-explicit-tuned.
    EXPECT_GE(variants, 3);
}

/** Mix the bit pattern of every deterministic LayerRecord field. */
std::uint64_t
mixRecord(std::uint64_t h, const sim::LayerRecord &record)
{
    const auto mix = [&h](const void *data, size_t size) {
        h = hashCombine(h, hashBytes(data, size));
    };
    const auto mixString = [&mix](const std::string &s) {
        mix(s.data(), s.size());
    };
    mixString(record.geometry);
    mixString(record.algorithm);
    mix(&record.groups, sizeof(record.groups));
    mix(&record.seconds, sizeof(record.seconds));
    mix(&record.tflops, sizeof(record.tflops));
    mix(&record.utilization, sizeof(record.utilization));
    mix(&record.dramBytes, sizeof(record.dramBytes));
    mix(&record.flops, sizeof(record.flops));
    for (const auto &[key, value] : record.extras) {
        mixString(key);
        mix(&value, sizeof(value));
    }
    return h;
}

TEST(AlgoParity, EveryVariantRecordStaysUnderPeak)
{
    // No record may claim more work per second than its accelerator's
    // peak, which counts every MXU: utilization <= 1, and no layer
    // finishes faster than its FLOPs at peak.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const std::string &name = spec.name;
        const auto accel = sim::makeAccelerator(name);
        const double peak_flops = accel->peakTflops() * 1e12;
        for (const models::ConvLayerSpec &layer : layers) {
            sim::RunOptions options;
            options.groups = layer.groups;
            const StatusOr<sim::LayerRecord> record =
                accel->tryRunLayer(layer.params, options);
            if (!record.ok())
                continue;
            EXPECT_LE(record->utilization, 1.0)
                << name << " on " << record->geometry;
            EXPECT_GE(record->seconds,
                      static_cast<double>(record->flops) / peak_flops)
                << name << " on " << record->geometry;
        }
    }
}

TEST(AlgoParity, VariantRecordDigestIsPinned)
{
    // Byte-identity net over every named variant, including the
    // indirect/SMM lowerings on non-stock arrays that no golden pins:
    // one digest over each variant's tryRunLayer outcome (the record,
    // or the status code of a rejected layer) on the distinct layers
    // of three models at batch 1.
    const std::vector<models::ConvLayerSpec> layers = distinctModelLayers();
    std::uint64_t digest = 0;
    for (const sim::VariantSpec &spec : sim::variantSpecs()) {
        const std::string &name = spec.name;
        const auto accel = sim::makeAccelerator(name);
        digest = hashCombine(digest, hashBytes(name.data(), name.size()));
        for (const models::ConvLayerSpec &layer : layers) {
            sim::RunOptions options;
            options.groups = layer.groups;
            const StatusOr<sim::LayerRecord> record =
                accel->tryRunLayer(layer.params, options);
            digest = record.ok()
                ? mixRecord(digest, *record)
                : hashCombine(digest, static_cast<std::uint64_t>(
                                          record.status().code()));
        }
    }
    // A change here means some variant's simulated numbers moved.
    // Re-pinned on purpose when explicit im2col stopped counting the
    // lowered matrix a third time in dramBytes (only the *-explicit
    // variants' dramBytes fell), and when the stock lowerings started
    // naming their algorithm (the same digest without the algorithm
    // field, 0x97747d7c59a66032, held across that change), and when
    // TPU utilization became tflops over a peak that counts every MXU
    // (0xe0c4a6bcc306cec4 before, when two-MXU variants reported up to
    // twice their true utilization), and when the space-to-depth stem
    // started counting the original layer's FLOPs in its throughput
    // (0xb4bc7d6f7054bb84 before; only tpu-v2-s2d's three C_I = 3 stems
    // moved: tflops, utilization and pjPerMac), and when explicit
    // im2col's transform started counting as exposed fill with idle
    // ports and grouped layers scaled their exposed fill with the
    // repetitions (0x13c47b02007f519b before; only the TPU
    // portUtilization and exposedFillFrac extras moved).
    constexpr std::uint64_t kPinned = 0xbca0a25929aaaa49ULL;
    EXPECT_EQ(digest, kPinned) << std::hex << "digest 0x" << digest;
}

TEST(AlgoParity, UnsupportedShapesAreRejectedNotSimulated)
{
    const auto strided = makeConv(4, 64, 28, 64, 3, /*stride=*/2, 1);
    for (const std::string &name : matrixVariants()) {
        const auto accel = sim::makeAccelerator(name);
        const StatusOr<sim::LayerRecord> record =
            accel->tryRunLayer(strided);
        if (accel->algorithm()->id() == AlgorithmId::Smm) {
            ASSERT_FALSE(record.ok()) << name;
            EXPECT_EQ(record.status().code(),
                      StatusCode::kInvalidArgument)
                << name;
            EXPECT_NE(record.status().message().find("smm"),
                      std::string::npos)
                << record.status().toString();
        } else {
            ASSERT_TRUE(record.ok())
                << name << ": " << record.status().toString();
            EXPECT_GT(record->seconds, 0.0) << name;
        }
    }
}

} // namespace
} // namespace cfconv::conv
