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
 * word_elems and dram_gbps and meet the same checks: a bad value, or
 * an unknown model, prints a status naming its key and exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/config.h"
#include "common/table.h"
#include "models/model_zoo.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sim/tpu_accelerator.h"

using namespace cfconv;

namespace {

StatusOr<models::ModelSpec>
pickModel(const std::string &name, Index batch)
{
    auto zoo = models::allModels(batch);
    zoo.push_back(models::mobilenetv1(batch));
    for (auto &m : zoo) {
        std::string lower = m.name;
        for (auto &c : lower)
            c = static_cast<char>(std::tolower(c));
        if (lower == name)
            return m;
    }
    return invalidArgumentError(
        "unknown model '%s' (try alexnet, vgg16, resnet, ...)",
        name.c_str());
}

/** Command-line prefixes and the config keys they set. */
constexpr std::pair<const char *, const char *> kKeyArgs[] = {
    {"array=", "array"}, {"word=", "word_elems"}, {"gbps=", "dram_gbps"}};

/** Apply the keys of @p parsed to @p cfg; @return false, with the
 *  status on stderr, when they do not parse or do not apply. */
bool
applyKeys(const StatusOr<Config> &parsed, tpusim::TpuConfig &cfg)
{
    const StatusOr<tpusim::TpuConfig> applied =
        parsed.ok() ? tpusim::tpuConfigFrom(*parsed, cfg)
                    : StatusOr<tpusim::TpuConfig>(parsed.status());
    if (!applied.ok()) {
        std::fprintf(stderr, "design_explorer: %s\n",
                     applied.status().toString().c_str());
        return false;
    }
    cfg = *applied;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    tpusim::TpuConfig cfg = tpusim::TpuConfig::tpuV2();
    std::string key_args; // the command-line keys, in config syntax
    std::string model_name = "vgg16";
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        bool is_key = false;
        for (const auto &[prefix, key] : kKeyArgs)
            if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
                key_args += std::string(key) + " = " +
                            (argv[i] + std::strlen(prefix)) + "\n";
                is_key = true;
            }
        if (is_key)
            continue;
        if (std::strncmp(argv[i], "model=", 6) == 0) {
            model_name = argv[i] + 6;
            continue;
        }
        if (std::strncmp(argv[i], "config=", 7) == 0) {
            if (!applyKeys(Config::fromFile(argv[i] + 7), cfg))
                return 2;
            continue;
        }
        if (std::strncmp(argv[i], "json=", 5) == 0 &&
            argv[i][5] != '\0') {
            json_path = argv[i] + 5;
            continue;
        }
        std::fprintf(stderr,
                     "usage: %s [array=N] [word=N] [gbps=X] [model=M] "
                     "[config=FILE] [json=FILE]\n",
                     argv[0]);
        return 1;
    }

    // Command-line keys override the config file.
    if (!applyKeys(Config::fromString(key_args), cfg))
        return 2;

    const StatusOr<models::ModelSpec> picked = pickModel(model_name, 8);
    if (!picked.ok()) {
        std::fprintf(stderr, "design_explorer: %s\n",
                     picked.status().toString().c_str());
        return 2;
    }
    const models::ModelSpec &model = *picked;
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
