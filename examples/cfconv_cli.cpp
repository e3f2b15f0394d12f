/**
 * @file
 * cfconv command-line layer profiler: describe a convolution on the
 * command line, pick a target and algorithm, get the performance
 * estimate. The "swiss-army knife" entry point for exploring the
 * simulators without writing code.
 *
 * Usage:
 *   cfconv_cli n=8 ci=64 hw=56 co=128 k=3 s=1 p=1 [d=1]
 *              [target=tpu|gpu|both] [algo=cf|cl|explicit|gemm]
 *              [tiles=0] [reuse=1] [s2d=0]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "gpusim/gpu_sim.h"
#include "tpusim/energy.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

namespace {

struct CliArgs
{
    Index n = 8, ci = 64, hw = 56, co = 128, k = 3, s = 1, p = 1,
          d = 1;
    std::string target = "both";
    std::string algo = "cf";
    Index tiles = 0;
    bool reuse = true;
    bool s2d = false;
};

bool
parseArg(const char *arg, CliArgs &out)
{
    long long v;
    char buf[64];
    if (std::sscanf(arg, "n=%lld", &v) == 1) { out.n = v; return true; }
    if (std::sscanf(arg, "ci=%lld", &v) == 1) { out.ci = v; return true; }
    if (std::sscanf(arg, "hw=%lld", &v) == 1) { out.hw = v; return true; }
    if (std::sscanf(arg, "co=%lld", &v) == 1) { out.co = v; return true; }
    if (std::sscanf(arg, "k=%lld", &v) == 1) { out.k = v; return true; }
    if (std::sscanf(arg, "s=%lld", &v) == 1) { out.s = v; return true; }
    if (std::sscanf(arg, "p=%lld", &v) == 1) { out.p = v; return true; }
    if (std::sscanf(arg, "d=%lld", &v) == 1) { out.d = v; return true; }
    if (std::sscanf(arg, "tiles=%lld", &v) == 1) {
        out.tiles = v;
        return true;
    }
    if (std::sscanf(arg, "reuse=%lld", &v) == 1) {
        out.reuse = v != 0;
        return true;
    }
    if (std::sscanf(arg, "s2d=%lld", &v) == 1) {
        out.s2d = v != 0;
        return true;
    }
    if (std::sscanf(arg, "target=%63s", buf) == 1) {
        out.target = buf;
        return true;
    }
    if (std::sscanf(arg, "algo=%63s", buf) == 1) {
        out.algo = buf;
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        if (!parseArg(argv[i], args)) {
            std::fprintf(stderr,
                         "usage: %s n= ci= hw= co= k= s= p= d= "
                         "target=tpu|gpu|both "
                         "algo=cf|cl|explicit|gemm tiles= reuse=0|1 "
                         "s2d=0|1\n",
                         argv[0]);
            return 1;
        }
    }

    const auto layer = tensor::makeConv(args.n, args.ci, args.hw,
                                        args.co, args.k, args.s,
                                        args.p, args.d);
    std::printf("layer:  %s\n", layer.toString().c_str());
    std::printf("GEMM:   M=%lld K=%lld N=%lld (%.3f GFLOPs)\n",
                (long long)layer.gemmM(), (long long)layer.gemmK(),
                (long long)layer.gemmN(),
                static_cast<double>(layer.flops()) / 1e9);

    if (args.target == "tpu" || args.target == "both") {
        tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
        tpusim::TpuRunOptions o;
        if (args.algo == "cl")
            o.algorithm = conv::AlgorithmId::ChannelLast;
        else if (args.algo == "explicit")
            o.algorithm = conv::AlgorithmId::ExplicitIm2col;
        else
            CFCONV_FATAL_IF(args.algo != "cf" && args.algo != "gemm",
                            "unknown algo '%s'", args.algo.c_str());
        o.multiTileOverride = args.tiles;
        o.spaceToDepthFirstLayer = args.s2d;

        const auto r = args.algo == "gemm"
            ? sim.runGemm(layer.gemmM(), layer.gemmK(), layer.gemmN(),
                          layer.dataType)
            : sim.runConv(layer, o);
        const auto e = tpusim::layerEnergy(sim.config(), r);
        std::printf("\nTPU-v2: %.2f us | %.2f TFLOPS | util %.0f%% | "
                    "multi-tile %lld\n",
                    r.seconds * 1e6, r.tflops,
                    100.0 * r.tflops / sim.config().peakTflops(),
                    (long long)r.multiTile);
        std::printf("        DRAM %.2f MB | port util %.0f%% | "
                    "%.2f pJ/MAC (dram %.0f%%, sram %.0f%%, mac "
                    "%.0f%%)\n",
                    static_cast<double>(r.dramBytes) / 1e6,
                    100.0 * r.portUtilization, e.pjPerMac,
                    100.0 * e.dramPj / e.totalPj,
                    100.0 * e.sramPj / e.totalPj,
                    100.0 * e.macPj / e.totalPj);
    }

    if (args.target == "gpu" || args.target == "both") {
        gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
        gpusim::GpuRunOptions o;
        if (args.algo == "cl") {
            o.algorithm = conv::AlgorithmId::ChannelLast;
            o.vendorTuned = true;
        } else if (args.algo == "explicit") {
            o.algorithm = conv::AlgorithmId::ExplicitIm2col;
        }
        o.interTileReuse = args.reuse;
        const auto r = args.algo == "gemm"
            ? sim.runGemm(layer.gemmM(), layer.gemmK(), layer.gemmN(),
                          o.vendorTuned, /*operands_in_dram=*/false)
            : sim.runConv(layer, o);
        std::printf("\nV100:   %.2f us | %.2f TFLOPS | %s-bound | "
                    "DRAM %.2f MB%s\n",
                    r.seconds * 1e6, r.tflops,
                    r.memoryBound ? "memory" : "compute",
                    static_cast<double>(r.dramBytes) / 1e6,
                    r.transformSeconds > 0.0 ? " (incl. transform)"
                                             : "");
    }
    return 0;
}
