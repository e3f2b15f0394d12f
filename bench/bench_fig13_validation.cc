/**
 * @file
 * Fig 13 reproduction: TPUSim validation against the TPU-v2
 * measurement stand-in (oracle).
 *  (a) GEMM microbenchmarks with M, N, K swept 256..8192
 *      (paper: 4.42% average error).
 *  (b) CONV layers that do not trigger the multi-tile optimization
 *      (paper: 4.87% average error).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
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

    // ---- (a) GEMM ----
    bench::experimentHeader(
        "Fig 13a", "TPUSim vs TPU-v2 on GEMM microbenchmarks");
    Table ga("Fig 13a: GEMM cycles, TPUSim vs measured");
    ga.setHeader({"M", "K", "N", "TPUSim (us)", "measured (us)",
                  "error"});
    std::vector<double> ref, got;
    const std::vector<Index> dims{256, 512, 1024, 2048, 4096, 8192};
    for (Index m : dims) {
        for (Index k : {512L, 2048L}) {
            for (Index n : {512L, 2048L}) {
                const double s = sim.runGemm(m, k, n).seconds;
                const double o = oracle.gemmSeconds(m, k, n);
                ref.push_back(o);
                got.push_back(s);
                ga.addRow({cell("%lld", (long long)m),
                           cell("%lld", (long long)k),
                           cell("%lld", (long long)n),
                           cell("%.2f", s * 1e6), cell("%.2f", o * 1e6),
                           cell("%.1f%%", 100.0 * (s - o) / o)});
            }
        }
    }
    ga.print();
    bench::summaryLine("Fig-13a", "GEMM avg |error| %", 4.42,
                       meanAbsPctError(ref, got));

    // ---- (b) CONV ----
    bench::experimentHeader(
        "Fig 13b",
        "TPUSim vs TPU-v2 on CONV layers without multi-tile "
        "(C_I >= 128)");
    Table gb("Fig 13b: CONV seconds, TPUSim vs measured");
    gb.setHeader({"layer", "TPUSim (us)", "measured (us)", "error"});
    ref.clear();
    got.clear();
    for (Index ci : {128L, 256L, 512L}) {
        for (Index hw : {14L, 28L, 56L}) {
            for (Index co : {128L, 256L}) {
                const auto p = tensor::makeConv(8, ci, hw, co, 3, 1, 1);
                const double s = sim.runConv(p).seconds;
                const double o = oracle.convSeconds(p);
                ref.push_back(o);
                got.push_back(s);
                gb.addRow({p.toString(), cell("%.2f", s * 1e6),
                           cell("%.2f", o * 1e6),
                           cell("%.1f%%", 100.0 * (s - o) / o)});
            }
        }
    }
    gb.print();
    bench::summaryLine("Fig-13b", "CONV avg |error| %", 4.87,
                       meanAbsPctError(ref, got));
    bench::printWallClock("bench_fig13_validation", wall);
    return 0;
}
