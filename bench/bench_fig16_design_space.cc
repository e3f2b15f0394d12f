/**
 * @file
 * Fig 16 reproduction: hardware design-space exploration with TPUSim.
 *  (a) Systolic array size 32..512 running VGG: peak FLOPS rises while
 *      utilization falls; halving of utilization from 128 to 256
 *      corroborates TPU-v2's choice of 128.
 *  (b) Vector-memory word size 1..32 at fixed 256 KB capacity: SRAM
 *      area (OpenRAM/CACTI stand-in) vs bandwidth idle ratio; word 8
 *      is near the area minimum but leaves the port mostly idle,
 *      explaining TPU-v3's second systolic array.
 *
 * Every design point is a *named variant* from the tune registry
 * ("tpu-v2-256x256", "tpu-v2-word4", ...), so each swept baseline is
 * reproducible by name anywhere the factory is accepted (benches,
 * chaos failover specs, the autotuner). `json=FILE` additionally dumps
 * the per-variant VGG16 RunRecords.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sram/sram_area_model.h"

using namespace cfconv;

namespace {

/** Run all VGG16 layers on the named variant; return {tflops,
 *  time-weighted utilization, time-weighted port utilization} plus
 *  the full record for the optional JSON report. */
struct VggRun
{
    double tflops;
    double utilization;
    double portUtil;
    sim::RunRecord record;
};

VggRun
runVgg(const std::string &variant, Index batch)
{
    const auto accelerator = sim::makeAccelerator(variant);
    const sim::RunRecord record =
        sim::ModelRunner(*accelerator).runModel(models::vgg16(batch));
    double util_weighted = 0.0;
    double port_weighted = 0.0;
    for (const auto &layer : record.layers) {
        const double s =
            static_cast<double>(layer.count) * layer.seconds;
        util_weighted += s * layer.utilization;
        port_weighted += s * layer.extras.at("portUtilization");
    }
    return {record.tflops, util_weighted / record.seconds,
            port_weighted / record.seconds, record};
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = bench::readArgs(argc, argv);
    const std::string jsonPath =
        bench::valueOrExit(args.getString("json", ""));
    bench::startBench(args);
    const bench::WallTimer wall;
    const Index batch = 8;
    std::vector<sim::RunRecord> records;

    // ---- (a) array size ----
    bench::experimentHeader(
        "Fig 16a", "Systolic array size exploration on VGG16");
    Table ga("Fig 16a: performance and utilization vs array size");
    ga.setHeader({"array", "TFLOPS", "utilization"});
    double util128 = 0.0, util256 = 0.0;
    const std::vector<Index> sizes = {32, 64, 128, 256, 512};
    const std::vector<std::string> size_variants = {
        "tpu-v2-32x32", "tpu-v2-64x64", "tpu-v2", "tpu-v2-256x256",
        "tpu-v2-512x512"};
    std::vector<VggRun> size_runs(sizes.size());
    // Each grid point owns one result slot; rows print serially after
    // the sweep so output order is stable.
    parallel::parallelFor(
        0, static_cast<Index>(sizes.size()), 1,
        [&](Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i)
                size_runs[i] = runVgg(size_variants[i], batch);
        });
    for (size_t i = 0; i < sizes.size(); ++i) {
        const Index size = sizes[i];
        const VggRun &r = size_runs[i];
        if (size == 128)
            util128 = r.utilization;
        if (size == 256)
            util256 = r.utilization;
        ga.addRow({cell("%lldx%lld", (long long)size, (long long)size),
                   cell("%.1f", r.tflops),
                   cell("%.0f%%", 100.0 * r.utilization)});
        records.push_back(r.record);
    }
    ga.print();
    bench::summaryLine("Fig-16a", "util(256)/util(128)", 0.5,
                       util256 / util128);

    // ---- (b) word size ----
    bench::experimentHeader(
        "Fig 16b",
        "Vector-memory word size: SRAM area vs bandwidth idle ratio "
        "(256 KB arrays, VGG16 inference)");
    Table gb("Fig 16b: word size design space");
    gb.setHeader({"word (elems)", "area (mm^2)", "rel. area",
                  "port idle ratio"});
    sram::SramAreaModel area;
    const Bytes cap = 256 * 1024;
    const std::vector<Index> words = {1, 2, 4, 8, 16, 32};
    const std::vector<std::string> word_variants = {
        "tpu-v2-word1", "tpu-v2-word2", "tpu-v2-word4", "tpu-v2",
        "tpu-v2-word16", "tpu-v2-word32"};
    std::vector<VggRun> word_runs(words.size());
    parallel::parallelFor(
        0, static_cast<Index>(words.size()), 1,
        [&](Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i)
                word_runs[i] = runVgg(word_variants[i], batch);
        });
    for (size_t i = 0; i < words.size(); ++i) {
        const Index word = words[i];
        const VggRun &r = word_runs[i];
        gb.addRow({cell("%lld", (long long)word),
                   cell("%.2f", area.areaMm2(cap, word)),
                   cell("%.2fx", area.relativeArea(cap, word)),
                   cell("%.0f%%", 100.0 * (1.0 - r.portUtil))});
        if (word == 8) {
            bench::summaryLine("Fig-16b", "word-8 port idle ratio",
                               0.5, 1.0 - r.portUtil);
            bench::summaryLine("Fig-16b", "area(1)/area(8)", 3.2,
                               area.areaMm2(cap, 1) /
                                   area.areaMm2(cap, 8));
        }
        if (word != 8) // the word-8 point is already in via Fig 16a
            records.push_back(r.record);
    }
    gb.print();

    // ---- (b, follow-on) the TPU-v3 move ----
    bench::experimentHeader(
        "Fig 16b follow-on",
        "Spending the idle word-8 port bandwidth on a second systolic "
        "array (the TPU-v3 design move the paper infers)");
    Table gc("Second MXU speedup vs word size (VGG16, batch 8)");
    gc.setHeader({"word (elems)", "1 MXU (ms)", "2 MXUs (ms)",
                  "speedup"});
    const std::vector<Index> mxu_words = {1, 2, 8};
    const std::vector<std::string> one_variants = {
        "tpu-v2-word1", "tpu-v2-word2", "tpu-v2"};
    const std::vector<std::string> two_variants = {
        "tpu-v2-word1-2mxu", "tpu-v2-word2-2mxu", "tpu-v2-2mxu"};
    std::vector<double> one_ms(mxu_words.size()),
        two_ms(mxu_words.size());
    std::vector<sim::RunRecord> two_records(mxu_words.size());
    parallel::parallelFor(
        0, static_cast<Index>(mxu_words.size()), 1,
        [&](Index lo, Index hi) {
            for (Index i = lo; i < hi; ++i) {
                const double total_flops = static_cast<double>(
                    models::vgg16(batch).totalFlops());
                one_ms[i] =
                    total_flops / runVgg(one_variants[i], batch).tflops
                    / 1e9;
                const VggRun two = runVgg(two_variants[i], batch);
                two_ms[i] = total_flops / two.tflops / 1e9;
                two_records[i] = two.record;
            }
        });
    for (size_t i = 0; i < mxu_words.size(); ++i) {
        const Index word = mxu_words[i];
        const double s1 = one_ms[i], s2 = two_ms[i];
        gc.addRow({cell("%lld", (long long)word), cell("%.2f", s1),
                   cell("%.2f", s2), cell("%.2fx", s1 / s2)});
        if (word == 8)
            bench::summaryLine("Fig-16b-followon",
                               "2nd MXU speedup at word 8", 2.0,
                               s1 / s2);
        records.push_back(two_records[i]);
    }
    gc.print();
    if (!jsonPath.empty()
        && sim::writeRunRecords(jsonPath, records))
        std::printf("wrote %s (%zu records)\n", jsonPath.c_str(),
                    records.size());
    bench::printWallClock("bench_fig16_design_space", wall);
    return 0;
}
