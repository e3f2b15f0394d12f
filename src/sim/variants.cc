#include "sim/variants.h"

#include <tuple>
#include <utility>

#include "common/logging.h"
#include "sim/gpu_accelerator.h"
#include "sim/tpu_accelerator.h"

namespace cfconv::sim {

namespace {

using conv::AlgorithmId;

/** The Table II v2 core with a square @p array, a vector-memory word
 *  of @p word elements and @p mxus matrix units. Capacity stays 32 MB
 *  with one vector memory per PE row (the Fig 16a/b sweeps). */
tpusim::TpuConfig
v2Core(Index array, Index word, Index mxus = 1)
{
    tpusim::TpuConfig config = tpusim::TpuConfig::tpuV2();
    config.array.rows = config.array.cols = array;
    config.wordElems = word;
    config.mxus = mxus;
    return config;
}

/** The v2 core with @p megabytes of on-chip memory. */
tpusim::TpuConfig
v2CoreWithMb(Bytes megabytes)
{
    tpusim::TpuConfig config = tpusim::TpuConfig::tpuV2();
    config.onChipBytes = megabytes * 1024 * 1024;
    return config;
}

/** A TPU variant: the stock v2 core and run options by default. */
VariantSpec
tpu(std::string name,
    tpusim::TpuConfig config = tpusim::TpuConfig::tpuV2(),
    tpusim::TpuRunOptions options = {})
{
    return {.name = std::move(name),
            .backend = Backend::Tpu,
            .tpuConfig = config,
            .tpuOptions = options};
}

/** A variant of the stock V100 config. */
VariantSpec
gpu(std::string name, gpusim::GpuRunOptions options = {})
{
    return {.name = std::move(name),
            .backend = Backend::Gpu,
            .gpuOptions = options};
}

std::vector<VariantSpec>
buildTable()
{
    const tpusim::TpuConfig v2 = tpusim::TpuConfig::tpuV2();
    std::vector<VariantSpec> table = {
        // ---- The four stock configurations, first and in the
        // historical presentation order. tests/sim pins their records
        // to the direct adapter constructions.
        tpu("tpu-v2"),
        tpu("tpu-v3ish", tpusim::TpuConfig::tpuV3ish()),
        gpu("gpu-v100"),
        gpu("gpu-v100-cudnn",
            {.algorithm = AlgorithmId::ChannelLast, .vendorTuned = true}),

        // ---- TPU array-size sweep (Fig 16a).
        tpu("tpu-v2-32x32", v2Core(32, 8)),
        tpu("tpu-v2-64x64", v2Core(64, 8)),
        tpu("tpu-v2-256x256", v2Core(256, 8)),
        tpu("tpu-v2-512x512", v2Core(512, 8)),

        // ---- TPU vector-memory word-size sweep (Fig 16b; word 8 is
        // the stock "tpu-v2").
        tpu("tpu-v2-word1", v2Core(128, 1)),
        tpu("tpu-v2-word2", v2Core(128, 2)),
        tpu("tpu-v2-word4", v2Core(128, 4)),
        tpu("tpu-v2-word16", v2Core(128, 16)),
        tpu("tpu-v2-word32", v2Core(128, 32)),

        // ---- Second matrix unit on the v2 clock and HBM (the Fig 16b
        // follow-on grid: spend idle word-8 port bandwidth on a second
        // MXU).
        tpu("tpu-v2-word1-2mxu", v2Core(128, 1, 2)),
        tpu("tpu-v2-word2-2mxu", v2Core(128, 2, 2)),
        tpu("tpu-v2-2mxu", v2Core(128, 8, 2)),

        // ---- On-chip capacity variants.
        tpu("tpu-v2-16mb", v2CoreWithMb(16)),
        tpu("tpu-v2-64mb", v2CoreWithMb(64)),

        // ---- TPU algorithm/layout baselines (the paper's comparative
        // axes as named, reproducible accelerators). Explicit im2col
        // simulates the GEMM part; the transform is host-estimated.
        tpu("tpu-v2-chlast", v2, {.algorithm = AlgorithmId::ChannelLast}),
        tpu("tpu-v2-explicit", v2,
            {.algorithm = AlgorithmId::ExplicitIm2col}),
        tpu("tpu-v2-nchw", v2, {.dramLayout = tensor::Layout::NCHW}),
        tpu("tpu-v2-s2d", v2, {.spaceToDepthFirstLayer = true}),

        // ---- Autotuner grid corners not covered by a presentation
        // name above (array x word cross products; see tune/autotuner).
        tpu("tpu-v2-a64-w4", v2Core(64, 4)),
        tpu("tpu-v2-a64-w16", v2Core(64, 16)),
        tpu("tpu-v2-a256-w4", v2Core(256, 4)),
        tpu("tpu-v2-a256-w16", v2Core(256, 16)),

        // ---- GPU kernel/efficiency variants.
        gpu("gpu-v100-chlast", {.algorithm = AlgorithmId::ChannelLast}),
        gpu("gpu-v100-explicit",
            {.algorithm = AlgorithmId::ExplicitIm2col}),
        gpu("gpu-v100-noreuse", {.interTileReuse = false}),
        gpu("gpu-v100-tuned", {.vendorTuned = true}),
        gpu("gpu-v100-explicit-tuned",
            {.algorithm = AlgorithmId::ExplicitIm2col,
             .vendorTuned = true}),
    };

    // ---- Algorithm-zoo variants (DESIGN §14): the indirect-conv and
    // SMM-Conv lowerings at every array x word point of the
    // autotuner's TPU grid, named after the grid point's stem.
    for (const auto &[algorithm, suffix] :
         {std::pair<AlgorithmId, const char *>{AlgorithmId::Indirect,
                                               "-indirect"},
          {AlgorithmId::Smm, "-smm"}})
        for (const auto &[array, word, stem] :
             {std::tuple<Index, Index, const char *>
                  {64, 4, "tpu-v2-a64-w4"},
              {64, 8, "tpu-v2-64x64"},
              {64, 16, "tpu-v2-a64-w16"},
              {128, 4, "tpu-v2-word4"},
              {128, 8, "tpu-v2"},
              {128, 16, "tpu-v2-word16"},
              {256, 4, "tpu-v2-a256-w4"},
              {256, 8, "tpu-v2-256x256"},
              {256, 16, "tpu-v2-a256-w16"}})
            table.push_back(tpu(std::string(stem) + suffix,
                                v2Core(array, word),
                                {.algorithm = algorithm}));
    table.insert(
        table.end(),
        {gpu("gpu-v100-indirect", {.algorithm = AlgorithmId::Indirect}),
         gpu("gpu-v100-indirect-tuned",
             {.algorithm = AlgorithmId::Indirect, .vendorTuned = true}),
         gpu("gpu-v100-smm", {.algorithm = AlgorithmId::Smm}),
         gpu("gpu-v100-smm-tuned",
             {.algorithm = AlgorithmId::Smm, .vendorTuned = true})});
    return table;
}

} // namespace

const char *
backendFamilyName(Backend backend)
{
    return backend == Backend::Tpu ? "tpu" : "gpu";
}

const std::vector<VariantSpec> &
variantSpecs()
{
    static const std::vector<VariantSpec> *table =
        new std::vector<VariantSpec>(buildTable());
    return *table;
}

const VariantSpec *
findVariant(const std::string &name)
{
    for (const VariantSpec &spec : variantSpecs())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

std::unique_ptr<Accelerator>
makeFromSpec(const VariantSpec &spec)
{
    if (spec.backend == Backend::Tpu)
        return std::make_unique<TpuAccelerator>(spec.name, spec.tpuConfig,
                                                spec.tpuOptions);
    return std::make_unique<GpuAccelerator>(spec.name, spec.gpuConfig,
                                            spec.gpuOptions);
}

StatusOr<std::unique_ptr<Accelerator>>
tryMakeAccelerator(const std::string &name)
{
    if (const VariantSpec *spec = findVariant(name))
        return makeFromSpec(*spec);
    std::string known;
    for (const VariantSpec &spec : variantSpecs())
        known += (known.empty() ? "" : ", ") + spec.name;
    return notFoundError("unknown accelerator '%s' (known: %s)",
                         name.c_str(), known.c_str());
}

std::unique_ptr<Accelerator>
makeAccelerator(const std::string &name)
{
    auto made = tryMakeAccelerator(name);
    if (!made.ok())
        fatal("%s", made.status().toString().c_str());
    return std::move(made).value();
}

} // namespace cfconv::sim
