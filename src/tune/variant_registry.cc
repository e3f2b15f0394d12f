#include "tune/variant_registry.h"

#include <utility>

#include "common/logging.h"
#include "sim/gpu_accelerator.h"
#include "sim/tpu_accelerator.h"

namespace cfconv::tune {

const char *
backendFamilyName(Backend backend)
{
    return backend == Backend::Tpu ? "tpu" : "gpu";
}

std::unique_ptr<sim::Accelerator>
makeFromSpec(const VariantSpec &spec)
{
    if (spec.backend == Backend::Tpu)
        return std::make_unique<sim::TpuAccelerator>(
            spec.name, spec.tpuConfig, spec.tpuOptions);
    return std::make_unique<sim::GpuAccelerator>(
        spec.name, spec.gpuConfig, spec.gpuOptions);
}

VariantRegistry &
VariantRegistry::instance()
{
    static VariantRegistry *registry = new VariantRegistry();
    return *registry;
}

VariantRegistry::VariantRegistry()
{
    registerBuiltinVariants(*this);
}

Status
VariantRegistry::add(VariantSpec spec)
{
    if (spec.name.empty())
        return invalidArgumentError(
            "variant registry: empty variant name");
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(spec.name) > 0)
        return invalidArgumentError(
            "variant registry: duplicate variant '%s'",
            spec.name.c_str());
    variants_.push_back(std::move(spec));
    index_[variants_.back().name] = &variants_.back();
    return okStatus();
}

const VariantSpec *
VariantRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : it->second;
}

bool
VariantRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

StatusOr<std::unique_ptr<sim::Accelerator>>
VariantRegistry::make(const std::string &name) const
{
    const VariantSpec *spec = find(name);
    if (spec != nullptr)
        return makeFromSpec(*spec);
    std::string known;
    for (const auto &k : names())
        known += (known.empty() ? "" : ", ") + k;
    return notFoundError("unknown accelerator '%s' (known: %s)",
                         name.c_str(), known.c_str());
}

std::vector<std::string>
VariantRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(variants_.size());
    for (const auto &spec : variants_)
        out.push_back(spec.name);
    return out;
}

std::vector<std::string>
VariantRegistry::names(Backend family) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (const auto &spec : variants_)
        if (spec.backend == family)
            out.push_back(spec.name);
    return out;
}

size_t
VariantRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return variants_.size();
}

namespace {

/** Build one TPU variant from the v2 base plus a config mutation. */
template <typename ConfigFn>
VariantSpec
tpuVariant(const char *name, const char *description, ConfigFn mutate,
           tpusim::TpuRunOptions options = {})
{
    VariantSpec spec;
    spec.name = name;
    spec.backend = Backend::Tpu;
    spec.description = description;
    mutate(spec.tpuConfig);
    spec.tpuOptions = options;
    return spec;
}

/** Build one GPU variant from the stock V100 config plus run options. */
VariantSpec
gpuVariant(const char *name, const char *description,
           gpusim::GpuRunOptions options = {})
{
    VariantSpec spec;
    spec.name = name;
    spec.backend = Backend::Gpu;
    spec.description = description;
    spec.gpuOptions = options;
    return spec;
}

/** The v2 core with a square @p array and one vector memory per PE
 *  row (total on-chip capacity unchanged — the Fig 16a sweep). */
void
setArray(tpusim::TpuConfig &c, Index array)
{
    c.array.rows = c.array.cols = array;
}

} // namespace

void
registerBuiltinVariants(VariantRegistry &registry)
{
    const auto addOrDie = [&registry](VariantSpec spec) {
        const Status status = registry.add(std::move(spec));
        CFCONV_FATAL_IF(!status.ok(), "builtin zoo: %s",
                        status.toString().c_str());
    };
    const auto identity = [](tpusim::TpuConfig &) {};

    // ---- The four stock configurations, first and in the historical
    // presentation order. Their specs must stay byte-identical to the
    // pre-registry makeAccelerator branches (tests/tune enforces it).
    addOrDie(tpuVariant("tpu-v2", "Table II core: 128x128 @ 700 MHz, "
                        "32 MB, HBM 700 GB/s", identity));
    {
        VariantSpec spec;
        spec.name = "tpu-v3ish";
        spec.backend = Backend::Tpu;
        spec.description = "v2 core + second MXU, 940 MHz, HBM 900 "
                           "GB/s (the Fig 16b insight)";
        spec.tpuConfig = tpusim::TpuConfig::tpuV3ish();
        addOrDie(std::move(spec));
    }
    addOrDie(gpuVariant("gpu-v100", "paper V100 + our channel-first "
                        "implicit kernel"));
    {
        gpusim::GpuRunOptions cudnn;
        cudnn.algorithm = conv::AlgorithmId::ChannelLast;
        cudnn.vendorTuned = true;
        addOrDie(gpuVariant("gpu-v100-cudnn", "vendor-tuned implicit "
                            "channel-last baseline (cuDNN-like)",
                            cudnn));
    }

    // ---- TPU array-size sweep (Fig 16a): square array, one vector
    // memory per row, 32 MB total capacity held constant.
    for (const auto &[array, name, desc] :
         {std::tuple<Index, const char *, const char *>
              {32, "tpu-v2-32x32", "v2 core, 32x32 array"},
          {64, "tpu-v2-64x64", "v2 core, 64x64 array"},
          {256, "tpu-v2-256x256", "v2 core, 256x256 array"},
          {512, "tpu-v2-512x512", "v2 core, 512x512 array"}}) {
        const Index a = array;
        addOrDie(tpuVariant(name, desc, [a](tpusim::TpuConfig &c) {
            setArray(c, a);
        }));
    }

    // ---- TPU vector-memory word-size sweep (Fig 16b; word 8 is the
    // stock "tpu-v2").
    for (const auto &[word, name] :
         {std::pair<Index, const char *>{1, "tpu-v2-word1"},
          {2, "tpu-v2-word2"},
          {4, "tpu-v2-word4"},
          {16, "tpu-v2-word16"},
          {32, "tpu-v2-word32"}}) {
        const Index w = word;
        addOrDie(tpuVariant(name, "v2 core, vector-memory word-size "
                            "variant", [w](tpusim::TpuConfig &c) {
            c.wordElems = w;
        }));
    }

    // ---- Second matrix unit on the v2 clock (the Fig 16b follow-on
    // grid: spend idle word-8 port bandwidth on a second MXU).
    for (const auto &[word, name] :
         {std::pair<Index, const char *>{1, "tpu-v2-word1-2mxu"},
          {2, "tpu-v2-word2-2mxu"},
          {8, "tpu-v2-2mxu"}}) {
        const Index w = word;
        addOrDie(tpuVariant(name, "v2 core + second MXU (v2 clock and "
                            "HBM)", [w](tpusim::TpuConfig &c) {
            c.wordElems = w;
            c.mxus = 2;
        }));
    }

    // ---- On-chip capacity variants.
    addOrDie(tpuVariant("tpu-v2-16mb", "v2 core, 16 MB on-chip",
                        [](tpusim::TpuConfig &c) {
                            c.onChipBytes = 16ULL * 1024 * 1024;
                        }));
    addOrDie(tpuVariant("tpu-v2-64mb", "v2 core, 64 MB on-chip",
                        [](tpusim::TpuConfig &c) {
                            c.onChipBytes = 64ULL * 1024 * 1024;
                        }));

    // ---- TPU algorithm/layout baselines (the paper's comparative
    // axes as named, reproducible accelerators).
    {
        tpusim::TpuRunOptions options;
        options.algorithm = conv::AlgorithmId::ChannelLast;
        addOrDie(tpuVariant("tpu-v2-chlast", "v2 core running the "
                            "Lym-style implicit channel-last "
                            "algorithm", identity, options));
    }
    {
        tpusim::TpuRunOptions options;
        options.algorithm = conv::AlgorithmId::ExplicitIm2col;
        addOrDie(tpuVariant("tpu-v2-explicit", "v2 core running "
                            "explicit im2col (GEMM part only; the "
                            "transform is host-estimated)", identity,
                            options));
    }
    {
        tpusim::TpuRunOptions options;
        options.dramLayout = tensor::Layout::NCHW;
        addOrDie(tpuVariant("tpu-v2-nchw", "v2 core with the IFMap in "
                            "NCHW DRAM layout (Fig 7 ablation)",
                            identity, options));
    }
    {
        tpusim::TpuRunOptions options;
        options.spaceToDepthFirstLayer = true;
        addOrDie(tpuVariant("tpu-v2-s2d", "v2 core with space-to-depth "
                            "rewriting of shallow stride-2k stem "
                            "layers", identity, options));
    }

    // ---- Autotuner grid corners not covered by a presentation name
    // above (array x word cross products; see tune/autotuner).
    for (const auto &[array, word, name] :
         {std::tuple<Index, Index, const char *>
              {64, 4, "tpu-v2-a64-w4"},
          {64, 16, "tpu-v2-a64-w16"},
          {256, 4, "tpu-v2-a256-w4"},
          {256, 16, "tpu-v2-a256-w16"}}) {
        const Index a = array, w = word;
        addOrDie(tpuVariant(name, "v2 core, autotuner grid point",
                            [a, w](tpusim::TpuConfig &c) {
                                setArray(c, a);
                                c.wordElems = w;
                            }));
    }

    // ---- GPU kernel/efficiency variants.
    {
        gpusim::GpuRunOptions options;
        options.algorithm = conv::AlgorithmId::ChannelLast;
        addOrDie(gpuVariant("gpu-v100-chlast", "V100 implicit "
                            "channel-last kernel at stock efficiency",
                            options));
    }
    {
        gpusim::GpuRunOptions options;
        options.algorithm = conv::AlgorithmId::ExplicitIm2col;
        addOrDie(gpuVariant("gpu-v100-explicit", "V100 explicit "
                            "im2col: transform kernel + GEMM",
                            options));
    }
    {
        gpusim::GpuRunOptions options;
        options.interTileReuse = false;
        addOrDie(gpuVariant("gpu-v100-noreuse", "V100 channel-first "
                            "kernel without the Sec. V inter-tile "
                            "reuse reordering", options));
    }
    {
        gpusim::GpuRunOptions options;
        options.vendorTuned = true;
        addOrDie(gpuVariant("gpu-v100-tuned", "V100 channel-first "
                            "kernel at vendor-grade compute "
                            "efficiency", options));
    }
    {
        gpusim::GpuRunOptions options;
        options.algorithm = conv::AlgorithmId::ExplicitIm2col;
        options.vendorTuned = true;
        addOrDie(gpuVariant("gpu-v100-explicit-tuned", "V100 explicit "
                            "im2col at vendor-grade compute "
                            "efficiency", options));
    }

    // ---- Algorithm-zoo variants (DESIGN §14): the indirect-conv and
    // SMM-Conv lowerings crossed with the autotuner's array x word
    // grid, so the third "algo" knob axis (tune/autotuner's
    // tpuKnobSpace) has a registered variant at every grid point.
    for (const auto &[algo, suffix, what] :
         {std::tuple<conv::AlgorithmId, const char *, const char *>
              {conv::AlgorithmId::Indirect, "indirect",
               "indirect-conv (pointer-table) lowering"},
          {conv::AlgorithmId::Smm, "smm",
           "SMM-Conv (shifted-block) lowering"}}) {
        tpusim::TpuRunOptions options;
        options.algorithm = algo;
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
              {256, 16, "tpu-v2-a256-w16"}}) {
            const Index a = array, w = word;
            const std::string name =
                std::string(stem) + "-" + suffix;
            const std::string desc =
                std::string(stem) + " core running the " + what;
            addOrDie(tpuVariant(name.c_str(), desc.c_str(),
                                [a, w](tpusim::TpuConfig &c) {
                                    setArray(c, a);
                                    c.wordElems = w;
                                }, options));
        }
    }
    {
        gpusim::GpuRunOptions options;
        options.algorithm = conv::AlgorithmId::Indirect;
        addOrDie(gpuVariant("gpu-v100-indirect", "V100 indirect-conv "
                            "(pointer-table) kernel at stock "
                            "efficiency", options));
        options.vendorTuned = true;
        addOrDie(gpuVariant("gpu-v100-indirect-tuned", "V100 "
                            "indirect-conv kernel at vendor-grade "
                            "compute efficiency", options));
    }
    {
        gpusim::GpuRunOptions options;
        options.algorithm = conv::AlgorithmId::Smm;
        addOrDie(gpuVariant("gpu-v100-smm", "V100 SMM-Conv "
                            "(shifted-block) kernel at stock "
                            "efficiency", options));
        options.vendorTuned = true;
        addOrDie(gpuVariant("gpu-v100-smm-tuned", "V100 SMM-Conv "
                            "kernel at vendor-grade compute "
                            "efficiency", options));
    }
}

} // namespace cfconv::tune

// ---------------------------------------------------------------------
// The sim/accelerator.h factory surface. Defined here — not in
// sim/accelerator.cc — so the name table and the dispatch both derive
// from the variant registry and cannot drift apart.

namespace cfconv::sim {

StatusOr<std::unique_ptr<Accelerator>>
tryMakeAccelerator(const std::string &name)
{
    return tune::VariantRegistry::instance().make(name);
}

std::unique_ptr<Accelerator>
makeAccelerator(const std::string &name)
{
    auto made = tryMakeAccelerator(name);
    if (!made.ok())
        fatal("%s", made.status().toString().c_str());
    return std::move(made).value();
}

std::vector<std::string>
knownAccelerators()
{
    return tune::VariantRegistry::instance().names();
}

} // namespace cfconv::sim
