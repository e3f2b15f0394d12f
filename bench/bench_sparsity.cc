/**
 * @file
 * Tile-level sparsity study — instantiating the paper's closing
 * future-work direction (sparse CNN accelerators on channel-first
 * implicit im2col). Sweeps structured (tile-wise) pruning rates and
 * reports the pass savings the schedule realizes on the TPU with zero
 * hardware support, alongside the functional exactness check.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "im2col/sparse.h"
#include "tensor/conv_ref.h"
#include "tpusim/tpu_sim.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    bench::experimentHeader(
        "Sparsity",
        "Tile-wise pruning on the channel-first schedule: skipped "
        "passes translate 1:1 into TPU time (zero hardware support)");

    tpusim::TpuSim sim((tpusim::TpuConfig::tpuV2()));
    const auto p = tensor::makeConv(8, 128, 28, 128, 3, 1, 1);
    tensor::Tensor input = tensor::makeInput(p);
    tensor::Tensor filter = tensor::makeFilter(p);
    input.fillRandom(1);
    filter.fillRandom(2);

    const double dense_sec = sim.runConv(p).seconds;

    Table t("Pruning-rate sweep (128ch 28x28 k3, batch 8)");
    t.setHeader({"pruned tiles", "density", "exact?", "est. speedup"});
    // Each pruning rate runs the full functional pipeline (prune,
    // sparse implicit conv, direct-conv reference); sweep the rates in
    // parallel and print the rows in order afterwards.
    struct SparsityPoint
    {
        double fraction;
        Index skippableTiles;
        double overallDensity;
        double maxDiff;
        double speedup;
    };
    const std::vector<double> fractions = {0.0, 2.0 / 9.0, 4.0 / 9.0,
                                           6.0 / 9.0};
    std::vector<SparsityPoint> points(fractions.size());
    parallel::parallelFor(
        0, static_cast<Index>(fractions.size()), 1,
        [&](Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i) {
                const double fraction = fractions[i];
                const tensor::Tensor pruned =
                    im2col::pruneFilterTiles(p, filter, fraction);
                const auto report =
                    im2col::analyzeSparsity(p, pruned);

                Index skipped = 0;
                const tensor::Tensor sparse_out =
                    im2col::convImplicitSparse(p, input, pruned,
                                               &skipped);
                const double diff =
                    static_cast<double>(sparse_out.maxAbsDiff(
                        tensor::convDirect(p, input, pruned)));

                // TPU estimate: passes scale with the surviving
                // tiles. With C_I = 128 (T = 1), each tile is one
                // pass.
                const double sparse_sec =
                    dense_sec * (1.0 - report.passSavings());
                points[i] = {fraction, report.skippableTiles,
                             report.overallDensity, diff,
                             sparse_sec > 0.0 ? dense_sec / sparse_sec
                                              : 9.0};
            }
        });
    for (const SparsityPoint &pt : points) {
        t.addRow({cell("%lld/9", (long long)pt.skippableTiles),
                  cell("%.2f", pt.overallDensity),
                  pt.maxDiff < 1e-3 ? "yes" : "NO",
                  cell("%.2fx", pt.speedup)});
        if (pt.fraction > 0.6)
            bench::summaryLine("Sparsity", "speedup at 6/9 pruned",
                               3.0, pt.speedup);
    }
    t.print();

    // Unstructured pruning for contrast: magnitude pruning rarely
    // zeroes whole tiles, so the schedule alone recovers nothing.
    bench::experimentHeader(
        "Sparsity (unstructured)",
        "Magnitude pruning leaves tiles non-empty: pass-level skipping "
        "recovers nothing, motivating tile-structured training");
    Table t2("Unstructured pruning: density vs skippable tiles");
    t2.setHeader({"threshold", "density", "skippable tiles"});
    for (float thr : {0.0f, 0.5f, 0.9f}) {
        const auto pruned = im2col::pruneFilter(filter, thr);
        const auto report = im2col::analyzeSparsity(p, pruned);
        t2.addRow({cell("%.1f", static_cast<double>(thr)),
                   cell("%.2f", report.overallDensity),
                   cell("%lld/9", (long long)report.skippableTiles)});
    }
    t2.print();
    bench::printWallClock("bench_sparsity", wall);
    return 0;
}
