/**
 * @file
 * Characterization sweep — the workload-space table an IISWC-style
 * artifact ships: effective TFLOPS of the channel-first algorithm on
 * TPU-v2 and V100 across input channels, kernel sizes, and strides,
 * plus the depthwise/grouped occupancy cliff. No direct paper figure;
 * this extends the evaluation to the full design space the paper's
 * text discusses.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "gpusim/gpu_sim.h"
#include "im2col/pass_plan.h"
#include "sim/model_runner.h"
#include "tpusim/energy.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    tpusim::TpuSim tpu((tpusim::TpuConfig::tpuV2()));
    gpusim::GpuSim gpu((gpusim::GpuConfig::v100()));
    const Index batch = 8, hw = 56, co = 128;

    bench::experimentHeader(
        "Characterization 1",
        "Channel-first TFLOPS across (C_I, kernel, stride), batch 8, "
        "56x56 -> 128 channels");
    Table t1("TPU-v2 / V100 TFLOPS sweep");
    t1.setHeader({"C_I", "k", "s", "TPU TFLOPS", "TPU util",
                  "TPU pJ/MAC", "GPU TFLOPS"});
    // Flatten the (C_I, kernel, stride) grid so the combos can be
    // simulated in parallel; the table rows print serially afterwards
    // in the original sweep order.
    struct Combo
    {
        Index ci, k, s;
        tpusim::TpuLayerResult tpu;
        tpusim::TpuEnergyReport energy;
        gpusim::GpuKernelResult gpu;
    };
    std::vector<Combo> combos;
    for (Index ci : {3L, 16L, 64L, 128L, 256L})
        for (Index k : {1L, 3L, 5L})
            for (Index s : {1L, 2L}) {
                if (k == 1 && s == 2)
                    continue; // rarely used; keep the table tight
                combos.push_back({ci, k, s, {}, {}, {}});
            }
    parallel::parallelFor(
        0, static_cast<Index>(combos.size()), 1,
        [&](Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i) {
                Combo &c = combos[i];
                const auto p = tensor::makeConv(batch, c.ci, hw, co,
                                                c.k, c.s, c.k / 2);
                c.tpu = tpu.runConv(p);
                c.energy = tpusim::layerEnergy(tpu.config(), c.tpu);
                c.gpu = gpu.runConv(p, gpusim::GpuRunOptions{});
            }
        });
    for (const Combo &c : combos)
        t1.addRow({cell("%lld", (long long)c.ci),
                   cell("%lld", (long long)c.k),
                   cell("%lld", (long long)c.s),
                   cell("%.1f", c.tpu.tflops),
                   cell("%.0f%%", 100.0 * c.tpu.tflops /
                                      tpu.config().peakTflops()),
                   cell("%.2f", c.energy.pjPerMac),
                   cell("%.1f", c.gpu.tflops)});
    t1.print();

    bench::experimentHeader(
        "Characterization 2",
        "Grouped convolution occupancy cliff on the 128x128 array "
        "(C_I = 128, k3): the channel-first schedule's depthwise "
        "weakness");
    Table t2("Row occupancy and functional-FLOP efficiency vs groups");
    t2.setHeader({"groups", "C_I/G", "row occupancy", "TPU TFLOPS"});
    const auto layer = tensor::makeConv(batch, 128, hw, 128, 3, 1, 1);
    for (Index groups : {1L, 2L, 4L, 16L, 64L, 128L}) {
        const double occ = im2col::groupedRowOccupancy(layer, groups, 128);
        // TPU cost: block-diagonal packed passes.
        const auto r = tpu.runGroupedConv(layer, groups);
        const double tflops = r.tflops;
        t2.addRow({cell("%lld", (long long)groups),
                   cell("%lld", (long long)tensor::groupSlice(layer, groups)
                                    .inChannels),
                   cell("%.1f%%", 100.0 * occ),
                   cell("%.2f", tflops)});
        if (groups == 128)
            bench::summaryLine("Characterization-2",
                               "depthwise row occupancy", 3.0 / 128.0,
                               occ);
    }
    t2.print();

    bench::experimentHeader(
        "Characterization 3",
        "Space-to-depth stem rewrite (production TPU first-layer "
        "treatment)");
    Table t3("Shallow stems with and without space-to-depth");
    t3.setHeader({"layer", "plain (us)", "s2d (us)", "speedup"});
    for (const auto &stem :
         {tensor::makeConv(batch, 3, 224, 64, 7, 2, 3),
          tensor::makeConv(batch, 3, 224, 96, 7, 2, 1),
          tensor::makeConv(batch, 4, 112, 32, 3, 2, 1)}) {
        tpusim::TpuRunOptions s2d;
        s2d.spaceToDepthFirstLayer = true;
        const double plain = tpu.runConv(stem).seconds;
        const double fast = tpu.runConv(stem, s2d).seconds;
        t3.addRow({stem.toString(), cell("%.1f", plain * 1e6),
                   cell("%.1f", fast * 1e6),
                   cell("%.2fx", plain / fast)});
    }
    t3.print();

    bench::experimentHeader(
        "Characterization 4",
        "MobileNetV1 on the TPU: depthwise layers are ~3% of the "
        "FLOPs but dominate the runtime (the occupancy cliff at model "
        "scale)");
    const auto mobilenet = models::mobilenetv1(batch);
    const Index n_mob =
        static_cast<Index>(mobilenet.layers.size());
    std::vector<double> mob_secs(n_mob);
    parallel::parallelFor(0, n_mob, 1, [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) {
            const auto &l = mobilenet.layers[i];
            mob_secs[i] =
                tpu.runGroupedConv(l.params, l.groups).seconds *
                static_cast<double>(l.count);
        }
    });
    double dw_s = 0.0, other_s = 0.0;
    for (Index i = 0; i < n_mob; ++i)
        (mobilenet.layers[i].groups > 1 ? dw_s : other_s) +=
            mob_secs[i];
    const auto tpu_v2 = sim::makeAccelerator("tpu-v2");
    const sim::RunRecord mob = sim::ModelRunner(*tpu_v2).runModel(mobilenet);
    std::printf("MobileNetV1 batch 8: %.3f ms total, %.1f%% spent in "
                "depthwise layers, effective %.2f TFLOPS (peak %.1f)\n",
                mob.seconds * 1e3, 100.0 * dw_s / (dw_s + other_s),
                mob.tflops, tpu.config().peakTflops());
    bench::summaryLine("Characterization-4",
                       "depthwise share of MobileNet TPU time", 0.5,
                       dw_s / (dw_s + other_s));
    bench::printWallClock("bench_characterization", wall);
    return 0;
}
