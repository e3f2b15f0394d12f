/**
 * @file
 * Ablation benches for the design arguments of Secs. II-C and III:
 *  1. Crossbar/banking scaling of the Lym-style channel-last design:
 *     why it cannot scale to a 256x256 GEMM engine (Sec. II-C).
 *  2. DRAM layout (Fig 7): HWC vs CHW tile-fill latency on the banked
 *     DRAM model across strides.
 *  3. Tile-order ablation: naive vs reuse-greedy DRAM fill volume
 *     across strides (the basis of Fig 18b's gains).
 *  4. Channel-last bank-conflict replay (Fig 3).
 *  5. Algorithm/layout ablation over *named registry variants*: every
 *     compared baseline is a reproducible accelerator name from the
 *     tune registry, and `json=FILE` dumps their ResNet-50 RunRecords.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "dram/access_pattern.h"
#include "im2col/reorder.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sram/banked_sram.h"
#include "sram/channel_last_feed.h"
#include "tensor/conv_params.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", ""));
    bench::startBench(args);
    const bench::WallTimer wall;
    // ---- 1. crossbar scaling ----
    bench::experimentHeader(
        "Ablation 1",
        "Crossbar + banking cost of the channel-last design vs GEMM "
        "engine size (Sec. II-C's unscalability argument)");
    Table t1("Crossbar/banking relative cost vs engine size");
    t1.setHeader({"engine", "crossbar cost", "banking cost"});
    for (Index size : {32L, 64L, 128L, 256L}) {
        t1.addRow({cell("%lldx%lld", (long long)size, (long long)size),
                   cell("%.0fx", sram::crossbarRelativeCost(size)),
                   cell("%.1fx", sram::bankingRelativeCost(size))});
    }
    t1.print();
    bench::summaryLine("Ablation-1", "crossbar cost at 256 (vs 32)",
                       64.0, sram::crossbarRelativeCost(256));

    // ---- 2. DRAM layout ----
    bench::experimentHeader(
        "Ablation 2",
        "HWC vs CHW DRAM layout: tile-fill cycles on the banked DRAM "
        "model (Fig 7)");
    Table t2("Tile-fill cycles by layout and stride");
    t2.setHeader({"stride", "HWCN cycles", "NCHW cycles", "CHW/HWC"});
    dram::DramModel model(dram::DramConfig::hbm700());
    for (Index stride : {1L, 2L, 4L}) {
        const auto p = tensor::makeConv(8, 64, 56, 64, 3, stride, 1);
        const Cycles hwcn = model.service(
            dram::tileFillStream(p, {1, 1}, tensor::Layout::HWCN));
        const Cycles nchw = model.service(
            dram::tileFillStream(p, {1, 1}, tensor::Layout::NCHW));
        t2.addRow({cell("%lld", (long long)stride),
                   cell("%llu", (unsigned long long)hwcn),
                   cell("%llu", (unsigned long long)nchw),
                   cell("%.1fx", static_cast<double>(nchw) /
                                     static_cast<double>(hwcn))});
        if (stride == 2)
            bench::summaryLine("Ablation-2", "CHW/HWC fill ratio (s2)",
                               2.0, static_cast<double>(nchw) /
                                        static_cast<double>(hwcn));
    }
    t2.print();

    // ---- 3. tile ordering ----
    bench::experimentHeader(
        "Ablation 3",
        "Naive vs reuse-greedy decomposed-filter order: DRAM fill "
        "volume (inter-tile reuse, Sec. V)");
    Table t3("Fill elements by tile order and stride");
    t3.setHeader({"stride", "naive", "reuse-greedy", "reduction"});
    for (Index stride : {1L, 2L, 3L}) {
        const auto p = tensor::makeConv(1, 64, 99, 64, 3, stride, 1);
        const Index naive = im2col::sequenceFillElems(
            p, im2col::orderTiles(p, im2col::TileOrder::Naive));
        const Index greedy = im2col::sequenceFillElems(
            p, im2col::orderTiles(p, im2col::TileOrder::ReuseGreedy));
        t3.addRow({cell("%lld", (long long)stride),
                   cell("%lld", (long long)naive),
                   cell("%lld", (long long)greedy),
                   cell("%.0f%%", 100.0 * (1.0 - static_cast<double>(
                                                     greedy) /
                                                     static_cast<double>(
                                                         naive)))});
    }
    t3.print();

    // ---- 4. channel-last bank-conflict replay ----
    bench::experimentHeader(
        "Ablation 4",
        "Channel-last SRAM feed: naive vs offline-skewed bank layout "
        "(the Fig 3 'careful layout' requirement, replayed)");
    Table t4("Feed slowdown over a 32-bank / 32-port SRAM");
    t4.setHeader({"layer", "naive slowdown", "skewed slowdown"});
    for (const auto &layer :
         {tensor::makeConv(1, 3, 32, 8, 3, 1, 1),
          tensor::makeConv(1, 4, 32, 8, 3, 1, 1),
          tensor::makeConv(1, 8, 24, 8, 3, 2, 1)}) {
        const auto naive = sram::replayChannelLastFeed(
            layer, {32, 32}, sram::BankLayout::NaiveModulo);
        const auto skewed = sram::replayChannelLastFeed(
            layer, {32, 32}, sram::BankLayout::Skewed);
        t4.addRow({layer.toString(),
                   cell("%.2fx", naive.slowdown()),
                   cell("%.2fx", skewed.slowdown())});
    }
    t4.print();

    // ---- 5. algorithm/layout variants, by registry name ----
    bench::experimentHeader(
        "Ablation 5",
        "Convolution algorithm / layout ablation on ResNet-50 (batch "
        "8), every baseline a named variant from the tune registry");
    const auto resnet = models::resnet50(8);
    const std::vector<std::vector<std::string>> families = {
        {"tpu-v2", "tpu-v2-chlast", "tpu-v2-explicit", "tpu-v2-nchw",
         "tpu-v2-s2d"},
        {"gpu-v100", "gpu-v100-chlast", "gpu-v100-noreuse",
         "gpu-v100-explicit", "gpu-v100-cudnn"},
    };
    Table t5("ResNet-50 end-to-end by named variant");
    t5.setHeader({"variant", "time (ms)", "TFLOPS", "vs family base"});
    std::vector<sim::RunRecord> records;
    for (const auto &family : families) {
        double base_seconds = 0.0;
        for (const auto &name : family) {
            const auto accelerator = sim::makeAccelerator(name);
            const sim::RunRecord record =
                sim::ModelRunner(*accelerator).runModel(resnet);
            if (name == family.front())
                base_seconds = record.seconds;
            t5.addRow({name, cell("%.3f", record.seconds * 1e3),
                       cell("%.2f", record.tflops),
                       cell("%.2fx", base_seconds / record.seconds)});
            records.push_back(record);
        }
    }
    t5.print();
    // The paper's core claim, as an ablation headline: implicit
    // channel-first beats explicit im2col on the TPU path.
    bench::summaryLine("Ablation-5", "tpu explicit/implicit time",
                       1.5,
                       records[2].seconds / records[0].seconds);
    if (!jsonPath.empty()
        && sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printWallClock("bench_ablation_hardware", wall);
    return 0;
}
