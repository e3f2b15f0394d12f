/**
 * @file
 * Fig 18 reproduction: GPU optimizations.
 *  (a) Strided convolutions: our channel-first kernel vs cuDNN on
 *      every stride>1 layer in the benchmark CNNs (paper: +20% on
 *      average, up to +40%).
 *  (b) Inter-tile reuse: reordered vs naive decomposed-filter order on
 *      layers whose global memory accesses are not fully overlapped
 *      (paper: +16.7% on average).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "gpusim/gpu_sim.h"
#include "models/model_zoo.h"
#include "oracle/gpu_oracle.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    const Index batch = 8;
    gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
    oracle::GpuOracle cudnn;

    // ---- (a) strided convolution ----
    bench::experimentHeader(
        "Fig 18a",
        "Strided convolutions: ours vs cuDNN (normalized FLOPS)");
    Table ga("Fig 18a: speedup over cuDNN on stride>1 layers");
    ga.setHeader({"layer (model.name WI,CI,CO,WF,s)", "cuDNN TFLOPS",
                  "ours TFLOPS", "speedup"});
    gpusim::GpuRunOptions ours;
    ours.algorithm = conv::AlgorithmId::ChannelFirst;
    std::vector<double> speedups;
    for (const auto &layer : models::stridedLayers(batch)) {
        const double c = cudnn.convTflops(layer.params);
        const double o = sim.runConv(layer.params, ours).tflops;
        speedups.push_back(o / c);
        const auto &p = layer.params;
        ga.addRow({cell("%s %lld,%lld,%lld,%lld,%lld",
                        layer.name.c_str(), (long long)p.inW,
                        (long long)p.inChannels, (long long)p.outChannels,
                        (long long)p.kernelW, (long long)p.strideW),
                   cell("%.1f", c), cell("%.1f", o),
                   cell("%.2fx", o / c)});
    }
    ga.print();
    const double avg = geoMean(speedups);
    double best = 0.0;
    for (double s : speedups)
        best = std::max(best, s);
    bench::summaryLine("Fig-18a", "avg speedup (paper 1.20)", 1.20, avg);
    bench::summaryLine("Fig-18a", "max speedup (paper 1.40)", 1.40,
                       best);

    // ---- (b) inter-tile reuse ----
    bench::experimentHeader(
        "Fig 18b",
        "Inter-tile reuse: reordered vs naive tile order on layers "
        "with exposed global-memory traffic");
    Table gb("Fig 18b: inter-tile reuse improvement");
    gb.setHeader({"layer (WI,CI,CO,WF)", "naive (us)", "reuse (us)",
                  "improvement"});
    gpusim::GpuRunOptions naive = ours, reuse = ours;
    naive.interTileReuse = false;
    reuse.interTileReuse = true;
    std::vector<double> gains;
    for (const auto &layer : models::stridedLayers(batch)) {
        const auto base = sim.runConv(layer.params, naive);
        if (!base.breakdown.memoryBound())
            continue; // the paper selects memory-exposed layers
        const auto opt = sim.runConv(layer.params, reuse);
        gains.push_back(base.seconds / opt.seconds);
        const auto &p = layer.params;
        gb.addRow({cell("%lld,%lld,%lld,%lld", (long long)p.inW,
                        (long long)p.inChannels,
                        (long long)p.outChannels, (long long)p.kernelW),
                   cell("%.1f", base.seconds * 1e6),
                   cell("%.1f", opt.seconds * 1e6),
                   cell("%.1f%%",
                        100.0 * (base.seconds / opt.seconds - 1.0))});
    }
    // Also include the large strided early layers of YOLO/VGG-like
    // shapes where fills dominate.
    for (const auto hw : {112L, 56L}) {
        const auto p = tensor::makeConv(batch, 32, hw, 64, 3, 2, 1);
        const auto base = sim.runConv(p, naive);
        const auto opt = sim.runConv(p, reuse);
        gains.push_back(base.seconds / opt.seconds);
        gb.addRow({cell("%lld,32,64,3", (long long)hw),
                   cell("%.1f", base.seconds * 1e6),
                   cell("%.1f", opt.seconds * 1e6),
                   cell("%.1f%%",
                        100.0 * (base.seconds / opt.seconds - 1.0))});
    }
    gb.print();
    bench::summaryLine("Fig-18b", "avg improvement (paper 1.167)",
                       1.167, geoMean(gains));
    bench::printWallClock("bench_fig18_gpu_opts", wall);
    return 0;
}
