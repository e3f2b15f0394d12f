/**
 * @file
 * CONV-variant ablations under the channel-first algorithm — the
 * variants Sec. II-C says existing implicit designs handle poorly:
 *  1. Dilated convolution: TPU throughput vs dilation (the dilation
 *     analog of Fig 4b's stride insensitivity).
 *  2. Training passes: decomposed backward-data / backward-filter
 *     GEMM cost relative to the forward pass.
 *  3. Deformable convolution: functional equivalence + the gather
 *     footprint bound of the offset-sampled operand.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "im2col/conv_backward.h"
#include "im2col/deformable.h"
#include "tensor/conv_ref.h"
#include "tensor/winograd.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));

    // ---- 1. dilation ----
    bench::experimentHeader(
        "Variant 1",
        "Dilated convolution on the TPU: channel-first handles "
        "dilation exactly like stride (address generation only)");
    Table t1("TPU TFLOPS vs dilation (64ch 56x56 -> 128, k3, batch 8)");
    t1.setHeader({"dilation", "TFLOPS", "vs d=1"});
    double base = 0.0;
    for (Index d : {1L, 2L, 4L}) {
        const auto p = tensor::makeConv(8, 64, 56, 128, 3, 1, d, d);
        const auto r = sim.runConv(p);
        if (d == 1)
            base = r.tflops;
        t1.addRow({cell("%lld", (long long)d), cell("%.2f", r.tflops),
                   cell("%.2f", r.tflops / base)});
        if (d == 4)
            bench::summaryLine("Variant-1", "TFLOPS ratio d4/d1", 1.0,
                               r.tflops / base);
    }
    t1.print();

    // ---- 2. training passes ----
    bench::experimentHeader(
        "Variant 2",
        "Training: decomposed backward passes vs forward on the TPU");
    Table t2("TPU time per pass (us), batch 8");
    t2.setHeader({"layer", "forward", "bwd-data", "bwd-filter",
                  "step/fwd"});
    for (const auto &geom :
         {tensor::makeConv(8, 64, 56, 64, 3, 1, 1),
          tensor::makeConv(8, 128, 28, 128, 3, 1, 1),
          tensor::makeConv(8, 256, 14, 256, 3, 1, 1)}) {
        const double fwd = sim.runConv(geom).seconds;
        const double dgrad =
            sim.runGemm(geom.gemmM(), geom.gemmN(), geom.gemmK())
                .seconds;
        const double wgrad =
            sim.runGemm(geom.gemmK(), geom.gemmM(), geom.gemmN())
                .seconds;
        t2.addRow({geom.toString(), cell("%.1f", fwd * 1e6),
                   cell("%.1f", dgrad * 1e6), cell("%.1f", wgrad * 1e6),
                   cell("%.2fx", (fwd + dgrad + wgrad) / fwd)});
    }
    t2.print();

    // ---- 3. deformable ----
    bench::experimentHeader(
        "Variant 3",
        "Deformable convolution: functional equivalence + footprint");
    const auto p = tensor::makeConv(2, 8, 14, 8, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(1);
    filter.fillRandom(2);
    const auto offsets = im2col::DeformableOffsets::random(p, 3, 2.0);
    const auto direct =
        im2col::convDeformableDirect(p, input, offsets, filter);
    const auto implicit =
        im2col::convDeformableImplicit(p, input, offsets, filter);
    const double diff =
        static_cast<double>(implicit.maxAbsDiff(direct));
    std::printf("implicit vs direct deformable conv: max |diff| = "
                "%.2e\n", diff);

    Table t3("Per-tile gather footprint (elements)");
    t3.setHeader({"tile", "rigid", "deformable bound"});
    for (const auto &tile : im2col::decomposeFilter(p)) {
        t3.addRow({cell("<%lld,%lld>", (long long)tile.r,
                        (long long)tile.s),
                   cell("%lld",
                        (long long)im2col::tileFillElems(p, tile)),
                   cell("%lld", (long long)im2col::deformableTileFillBound(
                                    p, tile))});
    }
    t3.print();
    bench::summaryLine("Variant-3", "deformable max |diff|", 0.0, diff);

    // ---- 4. Winograd contrast ----
    bench::experimentHeader(
        "Variant 4",
        "Winograd F(2x2,3x3) vs im2col: fewer multiplies, but the "
        "per-tile transform dataflow is why GEMM engines lower through "
        "im2col instead");
    Table t4("Winograd multiplication reduction (stride-1 3x3 layers)");
    t4.setHeader({"layer", "direct muls", "winograd muls",
                  "reduction", "exact?"});
    for (const auto &geom : {tensor::makeConv(1, 16, 34, 16, 3, 1, 1),
                             tensor::makeConv(1, 8, 15, 8, 3, 1, 1)}) {
        tensor::Tensor in2 = tensor::makeInput(geom);
        tensor::Tensor f2 = tensor::makeFilter(geom);
        in2.fillRandom(5);
        f2.fillRandom(6);
        const auto cost = tensor::winogradCost(geom);
        const double d =
            static_cast<double>(tensor::convWinograd(geom, in2, f2)
                                    .maxAbsDiff(tensor::convDirect(
                                        geom, in2, f2)));
        t4.addRow({geom.toString(),
                   cell("%.2fM", static_cast<double>(cost.directMuls) /
                                     1e6),
                   cell("%.2fM",
                        static_cast<double>(cost.winogradMuls) / 1e6),
                   cell("%.2fx", cost.reduction()),
                   d < 1e-3 ? "yes" : "NO"});
    }
    t4.print();
    bench::summaryLine("Variant-4", "Winograd mul reduction", 2.25,
                       tensor::winogradCost(
                           tensor::makeConv(1, 16, 34, 16, 3, 1, 1))
                           .reduction());
    bench::printWallClock("bench_ablation_variants", wall);
    return 0;
}
