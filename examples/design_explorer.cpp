/**
 * @file
 * TPU design-space explorer: vary the systolic array size, vector-
 * memory word size, and HBM bandwidth from the command line and see
 * how a chosen model responds — the workflow behind Fig 16. The run
 * goes through sim::TpuAccelerator + sim::ModelRunner, so `json=FILE`
 * can dump the full per-layer RunRecord for offline analysis.
 *
 * Usage: design_explorer [array=128] [word=8] [gbps=700]
 *                        [model=vgg16] [config=configs/tpu_v2.cfg]
 *                        [json=FILE]
 *
 * A config file (see configs/) is applied first; command-line keys
 * override it. array=, word= and gbps= set the config keys array,
 * word_elems and dram_gbps and meet the same checks. model= takes any
 * spelling models::findModel does ("vgg16", "VGG16", "resnet50",
 * "ResNet"). A bad value, an unknown key or an unknown model prints a
 * status naming its key and exits 2; a bad hardware value names the
 * argument as typed ("argument 'gbps= 900': ..."), and a bad line of
 * the config file names the file ("argument 'config=FILE': ...").
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sim/tpu_accelerator.h"

using namespace cfconv;

namespace {

/** Command-line keys and the config keys they set. */
constexpr std::pair<const char *, const char *> kKeyArgs[] = {
    {"array", "array"}, {"word", "word_elems"}, {"gbps", "dram_gbps"}};

struct ExplorerArgs
{
    tpusim::TpuConfig cfg = tpusim::TpuConfig::tpuV2();
    models::ModelSpec model;
    std::string jsonPath;
};

/** The command line: the config file, then the hardware keys over it,
 *  then the model; the Status names the first bad key. */
StatusOr<ExplorerArgs>
readArgs(int argc, char **argv)
{
    CFCONV_ASSIGN_OR_RETURN(const Config config,
                            Config::fromArgs(argc, argv));
    CFCONV_ASSIGN_OR_RETURN(const std::string cfg_path,
                            config.getString("config", ""));
    CFCONV_ASSIGN_OR_RETURN(const std::string model_name,
                            config.getString("model", "vgg16"));
    ExplorerArgs args;
    CFCONV_ASSIGN_OR_RETURN(args.jsonPath, config.getString("json", ""));
    // Each hardware argument as typed, and its key under the config
    // name tpuConfigFrom checks.
    std::vector<std::pair<std::string, Config>> keys;
    for (const auto &[arg, key] : kKeyArgs) {
        CFCONV_ASSIGN_OR_RETURN(const std::string value,
                                config.getString(arg, ""));
        if (value.empty())
            continue;
        Config one;
        one.set(key, value);
        keys.emplace_back(std::string(arg) + "=" + value, std::move(one));
    }
    CFCONV_RETURN_IF_ERROR(config.checkAllRead());

    if (!cfg_path.empty()) {
        CFCONV_ASSIGN_OR_RETURN(const Config file,
                                Config::fromFile(cfg_path));
        StatusOr<tpusim::TpuConfig> cfg =
            tpusim::tpuConfigFrom(file, args.cfg);
        if (!cfg.ok())
            return cfg.status().withContext("argument 'config=" +
                                            cfg_path + "'");
        args.cfg = *cfg;
    }
    for (const auto &[typed, one] : keys) {
        StatusOr<tpusim::TpuConfig> cfg = tpusim::tpuConfigFrom(one, args.cfg);
        if (!cfg.ok())
            return cfg.status().withContext("argument '" + typed + "'");
        args.cfg = *cfg;
    }
    CFCONV_ASSIGN_OR_RETURN(const models::ModelFactory factory,
                            models::findModel(model_name));
    args.model = factory(8);
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const StatusOr<ExplorerArgs> parsed = readArgs(argc, argv);
    if (!parsed.ok()) {
        std::fprintf(stderr, "design_explorer: %s\n",
                     parsed.status().toString().c_str());
        return 2;
    }
    const auto &[cfg, model, json_path] = *parsed;
    const sim::TpuAccelerator accelerator("tpu-explorer", cfg);
    const sim::RunRecord r =
        sim::ModelRunner(accelerator).runModel(model);

    std::printf("Configuration: %lldx%lld array, word %lld, "
                "%.0f GB/s, peak %.1f TFLOPS\n",
                (long long)cfg.array.rows, (long long)cfg.array.cols,
                (long long)cfg.wordElems, cfg.dram.peakGBps(),
                cfg.peakTflops());
    std::printf("%s (batch 8): %.3f ms, %.1f effective TFLOPS "
                "(%.0f%% of peak)\n",
                model.name.c_str(), r.seconds * 1e3, r.tflops,
                100.0 * r.tflops / cfg.peakTflops());

    Table table("Slowest five distinct layers");
    table.setHeader({"geometry", "us", "TFLOPS", "util"});
    // Find the five largest per-layer times.
    std::vector<std::pair<double, size_t>> order;
    for (size_t i = 0; i < r.layers.size(); ++i)
        order.push_back({r.layers[i].seconds, i});
    std::sort(order.rbegin(), order.rend());
    for (size_t i = 0; i < order.size() && i < 5; ++i) {
        const auto &lr = r.layers[order[i].second];
        table.addRow({lr.geometry, cell("%.1f", lr.seconds * 1e6),
                      cell("%.1f", lr.tflops),
                      cell("%.0f%%", 100.0 * lr.utilization)});
    }
    table.print();

    if (!json_path.empty() && sim::writeRunRecords(json_path, {r}))
        std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
