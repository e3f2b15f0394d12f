/**
 * @file
 * Fig 14 reproduction: the multi-tile optimization.
 *  (a) Effect of the multi-tile parameter on performance and on-chip
 *      workspace for N=8, C_I=8, W_I=C_O=128, W_F=3: workspace grows
 *      linearly, performance shows diminishing returns, and the
 *      TPU-matching point is 3 tiles.
 *  (b) Validation of the inferred strategy tiles = MIN(128/C_I, W_F)
 *      across channel/filter sizes (paper: 5.3% average error).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "im2col/pass_plan.h"
#include "oracle/tpu_oracle.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    oracle::TpuOracle oracle;

    // ---- (a) parameter sweep ----
    bench::experimentHeader(
        "Fig 14a",
        "Multi-tile parameter sweep on N=8, C_I=8, W_I=C_O=128, W_F=3");
    const auto layer = tensor::makeConv(8, 8, 128, 128, 3, 1, 1);
    Table ga("Fig 14a: performance and workspace vs multi-tile param");
    ga.setHeader({"tiles", "TFLOPS", "workspace (KB)", "vs 1-tile"});
    double one_tile = 0.0;
    for (Index tiles = 1; tiles <= 8; ++tiles) {
        tpusim::TpuRunOptions o;
        o.multiTileOverride = tiles;
        const auto r = sim.runConv(layer, o);
        if (tiles == 1)
            one_tile = r.tflops;
        ga.addRow({cell("%lld", (long long)r.multiTile),
                   cell("%.2f", r.tflops),
                   cell("%.0f",
                        static_cast<double>(r.peakOnChipBytes) / 1024.0),
                   cell("%.2fx", r.tflops / one_tile)});
    }
    ga.print();
    // The TPU-matching configuration: tiles = MIN(128/8, 3) = 3.
    const Index strategy = im2col::tpuMultiTileParam(128, layer);
    std::printf("TPU strategy for this layer: %lld tiles "
                "(paper: simulation matches TPUv2 at 3)\n",
                (long long)strategy);
    bench::summaryLine("Fig-14a", "strategy tile count", 3.0,
                       static_cast<double>(strategy));

    // ---- (b) strategy validation ----
    bench::experimentHeader(
        "Fig 14b",
        "Validation of tiles = MIN(128/C_I, W_F) across C_I and W_F");
    Table gb("Fig 14b: TFLOPS, TPUSim (strategy) vs measured");
    gb.setHeader({"C_I", "W_F", "tiles", "TPUSim", "measured",
                  "error"});
    std::vector<double> ref, got;
    for (Index wf : {3L, 5L, 7L}) {
        for (Index ci : {4L, 8L, 16L, 32L, 64L, 128L}) {
            const auto p =
                tensor::makeConv(8, ci, 128, 128, wf, 1, wf / 2);
            const auto r = sim.runConv(p);
            const double o = oracle.convTflops(p);
            ref.push_back(o);
            got.push_back(r.tflops);
            gb.addRow({cell("%lld", (long long)ci),
                       cell("%lld", (long long)wf),
                       cell("%lld", (long long)r.multiTile),
                       cell("%.2f", r.tflops), cell("%.2f", o),
                       cell("%.1f%%", 100.0 * (r.tflops - o) / o)});
        }
    }
    gb.print();
    bench::summaryLine("Fig-14b", "strategy avg |error| %", 5.3,
                       meanAbsPctError(ref, got));
    bench::printWallClock("bench_fig14_multitile", wall);
    return 0;
}
