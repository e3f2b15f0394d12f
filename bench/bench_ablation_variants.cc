/**
 * @file
 * CONV-variant ablations under the channel-first algorithm — the
 * variants Sec. II-C says existing implicit designs handle poorly:
 *  1. Dilated convolution: TPU throughput vs dilation (the dilation
 *     analog of Fig 4b's stride insensitivity).
 *  2. Training passes: decomposed backward-data / backward-filter
 *     GEMM cost relative to the forward pass.
 */

#include "bench_util.h"
#include "common/table.h"
#include "tensor/conv_params.h"
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

    bench::printWallClock("bench_ablation_variants", wall);
    return 0;
}
