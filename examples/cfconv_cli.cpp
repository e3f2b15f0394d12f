/**
 * @file
 * cfconv command-line layer profiler: describe a convolution on the
 * command line, pick a target and algorithm, get the performance
 * estimate. The "swiss-army knife" entry point for exploring the
 * simulators without writing code.
 *
 * Usage:
 *   cfconv_cli n=8 ci=64 hw=56 co=128 k=3 s=1 p=1 [d=1]
 *              [target=tpu|gpu|both] [algo=channel-first]
 *              [tiles=0] [reuse=1] [s2d=0]
 *
 * algo= takes a conv::Algorithm name (channel-first, channel-last,
 * explicit-im2col, indirect, smm) or gemm, the lowered GEMM alone, on
 * both targets. A value that does not parse, an unknown key, a layer
 * tensor::checkLayer rejects or one the algorithm does not support
 * exits 2 with a message naming it.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "common/config.h"
#include "conv/algorithm.h"
#include "gpusim/gpu_sim.h"
#include "tpusim/energy.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

namespace {

struct CliArgs
{
    tensor::ConvParams layer;
    std::string target;
    /** The lowering to simulate; nullopt for the lowered GEMM alone. */
    std::optional<conv::AlgorithmId> algo;
    Index tiles = 0;
    bool reuse = true;
    bool s2d = false;
};

/** The command line; INVALID_ARGUMENT naming the first bad key, or
 *  the layer field tensor::checkLayer rejects. */
StatusOr<CliArgs>
readArgs(int argc, char **argv)
{
    CFCONV_ASSIGN_OR_RETURN(const Config config,
                            Config::fromArgs(argc, argv));
    CliArgs args;
    tensor::ConvParams &p = args.layer;
    CFCONV_ASSIGN_OR_RETURN(p.batch, config.getInt("n", 8));
    CFCONV_ASSIGN_OR_RETURN(p.inChannels, config.getInt("ci", 64));
    CFCONV_ASSIGN_OR_RETURN(p.inH, config.getInt("hw", 56));
    CFCONV_ASSIGN_OR_RETURN(p.outChannels, config.getInt("co", 128));
    CFCONV_ASSIGN_OR_RETURN(p.kernelH, config.getInt("k", 3));
    CFCONV_ASSIGN_OR_RETURN(p.strideH, config.getInt("s", 1));
    CFCONV_ASSIGN_OR_RETURN(p.padH, config.getInt("p", 1));
    CFCONV_ASSIGN_OR_RETURN(p.dilationH, config.getInt("d", 1));
    p.inW = p.inH;
    p.kernelW = p.kernelH;
    p.strideW = p.strideH;
    p.padW = p.padH;
    p.dilationW = p.dilationH;
    CFCONV_ASSIGN_OR_RETURN(args.target,
                            config.getString("target", "both"));
    CFCONV_ASSIGN_OR_RETURN(const std::string algo,
                            config.getString("algo", "channel-first"));
    CFCONV_ASSIGN_OR_RETURN(args.tiles, config.getInt("tiles", 0));
    CFCONV_ASSIGN_OR_RETURN(args.reuse, config.getBool("reuse", true));
    CFCONV_ASSIGN_OR_RETURN(args.s2d, config.getBool("s2d", false));
    CFCONV_RETURN_IF_ERROR(config.checkAllRead());

    if (args.target != "tpu" && args.target != "gpu" &&
        args.target != "both")
        return invalidArgumentError("bad target=%s (want tpu, gpu or both)",
                                    args.target.c_str());
    if (args.tiles < 0)
        return invalidArgumentError(
            "bad tiles=%lld (want 0, the inferred strategy, or >= 1)",
            static_cast<long long>(args.tiles));
    CFCONV_RETURN_IF_ERROR(tensor::checkLayer(p));
    if (algo == "gemm")
        return args;
    const StatusOr<conv::AlgorithmId> id = conv::parseAlgorithmName(algo);
    if (!id.ok())
        return invalidArgumentError("bad algo=%s (%s, or gemm)",
                                    algo.c_str(),
                                    id.status().message().c_str());
    CFCONV_RETURN_IF_ERROR(conv::findAlgorithm(*id)->supports(p, 1));
    args.algo = *id;
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const StatusOr<CliArgs> parsed = readArgs(argc, argv);
    if (!parsed.ok()) {
        std::fprintf(stderr, "cfconv_cli: %s\n",
                     parsed.status().toString().c_str());
        return 2;
    }
    const CliArgs &args = *parsed;
    const tensor::ConvParams &layer = args.layer;
    std::printf("layer:  %s\n", layer.toString().c_str());
    std::printf("GEMM:   M=%lld K=%lld N=%lld (%.3f GFLOPs)\n",
                (long long)layer.gemmM(), (long long)layer.gemmK(),
                (long long)layer.gemmN(),
                static_cast<double>(layer.flops()) / 1e9);

    if (args.target != "gpu") {
        tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
        tpusim::TpuRunOptions o;
        o.algorithm = args.algo.value_or(conv::AlgorithmId::ChannelFirst);
        o.multiTileOverride = args.tiles;
        o.spaceToDepthFirstLayer = args.s2d;

        const auto r = args.algo
            ? sim.runConv(layer, o)
            : sim.runGemm(layer.gemmM(), layer.gemmK(), layer.gemmN(),
                          layer.dataType);
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

    if (args.target != "tpu") {
        gpusim::GpuSim sim((gpusim::GpuConfig::v100()));
        gpusim::GpuRunOptions o;
        o.algorithm = args.algo.value_or(conv::AlgorithmId::ChannelFirst);
        // Implicit channel-last runs at cuDNN-grade efficiency.
        o.vendorTuned = o.algorithm == conv::AlgorithmId::ChannelLast;
        o.interTileReuse = args.reuse;
        const auto r = args.algo
            ? sim.runConv(layer, o)
            : sim.runGemm(layer.gemmM(), layer.gemmK(), layer.gemmN(),
                          o.vendorTuned, /*operands_in_dram=*/false);
        std::printf("\nV100:   %.2f us | %.2f TFLOPS | %s-bound | "
                    "DRAM %.2f MB%s\n",
                    r.seconds * 1e6, r.tflops,
                    r.breakdown.memoryBound() ? "memory" : "compute",
                    static_cast<double>(r.dramBytes) / 1e6,
                    r.transformSeconds > 0.0 ? " (incl. transform)"
                                             : "");
    }
    return 0;
}
