/**
 * @file
 * Table I reproduction: memory usage (MB) of the IFMaps vs. the
 * explicit-im2col lowered feature matrices for AlexNet, ResNet, VGG16,
 * YOLO, and DenseNet. The paper's absolute values correspond to
 * batch 1 at 4-byte elements; the shape that must hold is the
 * 1.5x-10x blow-up of the lowered matrix.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "models/model_zoo.h"

using namespace cfconv;

int
main(int argc, char **argv)
{
    bench::startBench(bench::readArgs(argc, argv));
    const bench::WallTimer wall;
    bench::experimentHeader(
        "Table I",
        "Memory usage (MB) of explicit im2col lowered matrices");

    const Index batch = 1;
    // Paper reference (MB): IFMaps / lowered IFMaps.
    const std::map<std::string, std::pair<double, double>> paper = {
        {"AlexNet", {1.39, 14.57}},  {"ResNet", {34.55, 81.11}},
        {"VGG16", {34.65, 311.80}},  {"YOLO", {530.56, 869.50}},
        {"DenseNet", {1196.48, 5641.70}},
    };

    Table table("Table I: explicit-im2col memory usage, batch 1, fp32");
    table.setHeader({"model", "IFMaps (MB)", "lowered (MB)", "ratio",
                     "paper ratio"});

    for (auto model : models::allModels(batch)) {
        bool reported = paper.count(model.name) > 0;
        // Match the paper's 4-byte elements.
        for (auto &layer : model.layers)
            layer.params.dataType = DataType::Fp32;
        const double in_mb =
            static_cast<double>(model.totalInputBytes()) / 1e6;
        const double low_mb =
            static_cast<double>(model.totalLoweredBytes()) / 1e6;
        const double ratio = low_mb / in_mb;
        double paper_ratio = 0.0;
        if (reported) {
            const auto &p = paper.at(model.name);
            paper_ratio = p.second / p.first;
        }
        table.addRow({model.name, cell("%.2f", in_mb),
                      cell("%.2f", low_mb), cell("%.2fx", ratio),
                      reported ? cell("%.2fx", paper_ratio) : "-"});
        if (reported)
            bench::summaryLine("Table-I", (model.name + " blow-up").c_str(),
                               paper_ratio, ratio);
    }
    table.print();
    bench::printWallClock("bench_table1_memory", wall);
    return 0;
}
