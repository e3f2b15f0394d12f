#include "tune/autotuner.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/memo_cache.h"
#include "common/parallel.h"
#include "conv/algorithm.h"

namespace cfconv::tune {

KnobSpace
tpuKnobSpace()
{
    KnobSpace space;
    space.family = sim::Backend::Tpu;
    space.variants = {
        // array 64
        "tpu-v2-a64-w4", "tpu-v2-a64-w4-indirect", "tpu-v2-a64-w4-smm",
        "tpu-v2-64x64", "tpu-v2-64x64-indirect", "tpu-v2-64x64-smm",
        "tpu-v2-a64-w16", "tpu-v2-a64-w16-indirect",
        "tpu-v2-a64-w16-smm",
        // array 128
        "tpu-v2-word4", "tpu-v2-word4-indirect", "tpu-v2-word4-smm",
        "tpu-v2", "tpu-v2-indirect", "tpu-v2-smm",
        "tpu-v2-word16", "tpu-v2-word16-indirect", "tpu-v2-word16-smm",
        // array 256
        "tpu-v2-a256-w4", "tpu-v2-a256-w4-indirect",
        "tpu-v2-a256-w4-smm",
        "tpu-v2-256x256", "tpu-v2-256x256-indirect",
        "tpu-v2-256x256-smm",
        "tpu-v2-a256-w16", "tpu-v2-a256-w16-indirect",
        "tpu-v2-a256-w16-smm",
    };
    return space;
}

KnobSpace
gpuKnobSpace()
{
    KnobSpace space;
    space.family = sim::Backend::Gpu;
    space.variants = {
        "gpu-v100",          "gpu-v100-tuned",
        "gpu-v100-chlast",   "gpu-v100-cudnn",
        "gpu-v100-explicit", "gpu-v100-explicit-tuned",
        "gpu-v100-indirect", "gpu-v100-indirect-tuned",
        "gpu-v100-smm",      "gpu-v100-smm-tuned",
    };
    return space;
}

namespace {

/** Process-wide memo of candidate evaluations, shared by every
 *  Autotuner instance (keys carry the variant name, so spaces cannot
 *  collide). Counters surface as "tune_cache.*". */
MemoCache<double> &
tuneCache()
{
    static MemoCache<double> *cache = new MemoCache<double>("tune_cache");
    return *cache;
}

std::string
evalKey(const std::string &variant, const tensor::ConvParams &params,
        Index groups)
{
    std::string key = "tune|" + variant + "|" + params.toString() + "|";
    memoKeyAppendInt(key, groups);
    return key;
}

/** Position of @p name in @p space's list; points() when absent. */
size_t
indexOf(const KnobSpace &space, const std::string &name)
{
    return static_cast<size_t>(
        std::find(space.variants.begin(), space.variants.end(), name)
        - space.variants.begin());
}

} // namespace

StatusOr<std::unique_ptr<Autotuner>>
Autotuner::create(KnobSpace space)
{
    if (space.variants.empty())
        return invalidArgumentError("knob space lists no variants");
    std::unique_ptr<Autotuner> tuner(new Autotuner(std::move(space)));
    tuner->candidates_.reserve(tuner->space_.points());
    for (const std::string &name : tuner->space_.variants) {
        const sim::VariantSpec *spec = sim::findVariant(name);
        if (spec == nullptr)
            return notFoundError("knob space names unknown variant '%s'",
                                 name.c_str());
        if (spec->backend != tuner->space_.family)
            return invalidArgumentError(
                "knob space variant '%s' is not a %s variant",
                name.c_str(),
                sim::backendFamilyName(tuner->space_.family));
        tuner->candidates_.push_back(sim::makeFromSpec(*spec));
    }
    return tuner;
}

Autotuner::Autotuner(KnobSpace space) : space_(std::move(space)) {}

StatGroup
Autotuner::cacheStats()
{
    return tuneCache().statsSnapshot();
}

double
Autotuner::evaluate(size_t index, const tensor::ConvParams &params,
                    Index groups,
                    std::atomic<Index> &evaluations) const
{
    // Candidates whose algorithm rejects the layer (e.g. SMM-Conv on a
    // strided layer) score +infinity: never chosen, never simulated,
    // never cached. The check is cheap and deterministic, so every
    // thread count sees the same effective space.
    if (const conv::Algorithm *algo = candidates_[index]->algorithm())
        if (!algo->supports(params, groups).ok())
            return std::numeric_limits<double>::infinity();
    MemoCache<double> &cache = tuneCache();
    const std::string key =
        evalKey(space_.variants[index], params, groups);
    double seconds = 0.0;
    if (cache.enabled() && cache.lookup(key, &seconds))
        return seconds;
    sim::RunOptions options;
    options.groups = groups;
    seconds = candidates_[index]->runLayer(params, options).seconds;
    ++evaluations;
    if (cache.enabled())
        cache.insert(key, seconds);
    return seconds;
}

size_t
Autotuner::search(const tensor::ConvParams &params, Index groups,
                  std::atomic<Index> &evaluations) const
{
    std::vector<double> seconds(space_.points(), 0.0);
    parallel::parallelFor(
        0, static_cast<Index>(space_.points()), 1,
        [&](Index begin, Index end) {
            for (Index i = begin; i < end; ++i)
                seconds[static_cast<size_t>(i)] =
                    evaluate(static_cast<size_t>(i), params, groups,
                             evaluations);
        });
    // Ascending scan with strict improvement: ties resolve to the
    // first listed variant regardless of thread count.
    size_t best = 0;
    for (size_t i = 1; i < seconds.size(); ++i)
        if (seconds[i] < seconds[best])
            best = i;
    return best;
}

StatusOr<LayerTuneChoice>
Autotuner::tuneLayer(const models::ConvLayerSpec &layer,
                     const TuneOptions &options)
{
    const size_t base = indexOf(space_, options.baseline);
    if (base == space_.points())
        return notFoundError(
            "baseline '%s' is not a variant of this knob space",
            options.baseline.c_str());
    if (const Status refused =
            tensor::checkLayer(layer.params, layer.groups);
        !refused.ok())
        return refused.withContext("tuning layer " + layer.name);

    LayerTuneChoice choice;
    choice.layerName = layer.name;
    choice.geometry = layer.params.toString();
    choice.groups = layer.groups;
    choice.count = layer.count;

    const char *family = sim::backendFamilyName(space_.family);
    // DB entries are keyed per (family, algorithm, geometry): the
    // algorithm context is the baseline accelerator's lowering, so
    // searches anchored to different algorithms stay distinct.
    const conv::Algorithm *baseAlgo = candidates_[base]->algorithm();
    const std::string algoName =
        baseAlgo != nullptr ? baseAlgo->name() : "channel-first";
    if (options.db != nullptr) {
        const TunedEntry *hit = options.db->find(
            family, algoName, choice.geometry, choice.groups);
        // Honor the entry only when it answers this exact question:
        // same baseline, and a winner this space can instantiate.
        if (hit != nullptr && hit->baseline == options.baseline
            && indexOf(space_, hit->variant) != space_.points()) {
            choice.variant = hit->variant;
            choice.tunedSeconds = hit->tunedSeconds;
            choice.baselineSeconds = hit->baselineSeconds;
            choice.fromDb = true;
            return choice;
        }
    }

    std::atomic<Index> evaluations{0};
    const size_t best = search(layer.params, layer.groups, evaluations);
    choice.variant = space_.variants[best];
    choice.tunedSeconds =
        evaluate(best, layer.params, layer.groups, evaluations);
    choice.baselineSeconds =
        evaluate(base, layer.params, layer.groups, evaluations);
    choice.evaluations = evaluations.load();

    if (options.db != nullptr) {
        TunedEntry entry;
        entry.family = family;
        entry.algorithm = algoName;
        entry.geometry = choice.geometry;
        entry.groups = choice.groups;
        entry.variant = choice.variant;
        entry.baseline = options.baseline;
        entry.tunedSeconds = choice.tunedSeconds;
        entry.baselineSeconds = choice.baselineSeconds;
        entry.evaluations = choice.evaluations;
        options.db->upsert(std::move(entry));
    }
    return choice;
}

StatusOr<ModelTuneResult>
Autotuner::tuneModel(const models::ModelSpec &model,
                     const TuneOptions &options)
{
    ModelTuneResult result;
    result.model = model.name;
    result.baseline = options.baseline;
    for (const models::ConvLayerSpec &layer : model.layers) {
        CFCONV_ASSIGN_OR_RETURN(LayerTuneChoice choice,
                                tuneLayer(layer, options));
        const double reps = static_cast<double>(choice.count);
        result.baselineSeconds += choice.baselineSeconds * reps;
        result.tunedSeconds += choice.tunedSeconds * reps;
        result.evaluations += choice.evaluations;
        if (choice.fromDb)
            ++result.dbHits;
        result.layers.push_back(std::move(choice));
    }
    return result;
}

} // namespace cfconv::tune
