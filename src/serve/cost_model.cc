#include "serve/cost_model.h"

#include <array>

#include "common/config.h"
#include "common/logging.h"
#include "sim/model_runner.h"

namespace cfconv::serve {

StatusOr<ModelClass>
makeModelClass(const std::string &name, double weight, Index priority,
               double sloSeconds)
{
    ModelClass cls;
    CFCONV_ASSIGN_OR_RETURN(cls.factory, models::findModel(name));
    cls.name = name;
    cls.weight = weight;
    cls.priority = priority;
    cls.sloSeconds = sloSeconds;
    return cls;
}

StatusOr<ModelMix>
parseClassSpecs(const std::string &spec)
{
    if (spec.empty())
        return invalidArgumentError("empty class spec");
    ModelMix mix;
    for (const std::string &token : splitList(spec, ',')) {
        if (token.empty())
            return invalidArgumentError(
                "class spec '%s': empty entry", spec.c_str());

        // Split "name[:weight[:priority[:sloMs]]]".
        const std::vector<std::string> parts = splitList(token, ':');
        if (parts.size() > 4)
            return invalidArgumentError(
                "class spec entry '%s': expected "
                "name[:weight[:priority[:sloMs]]]",
                token.c_str());
        const auto read = [](const auto parsed, auto &out) {
            if (parsed)
                out = *parsed;
            return parsed.has_value();
        };
        double weight = 1.0, sloMs = 0.0;
        long long priority = 0;
        if ((parts.size() > 1 && !read(parseDecimalDouble(parts[1]), weight)) ||
            (parts.size() > 2 && !read(parseDecimal(parts[2]), priority)) ||
            (parts.size() > 3 && !read(parseDecimalDouble(parts[3]), sloMs)))
            return invalidArgumentError(
                "class spec entry '%s': malformed number",
                token.c_str());
        if (weight <= 0.0)
            return invalidArgumentError(
                "class spec entry '%s': weight must be > 0",
                token.c_str());
        if (priority < 0)
            return invalidArgumentError(
                "class spec entry '%s': priority must be >= 0",
                token.c_str());
        if (sloMs < 0.0)
            return invalidArgumentError(
                "class spec entry '%s': sloMs must be >= 0",
                token.c_str());
        CFCONV_ASSIGN_OR_RETURN(
            ModelClass cls,
            makeModelClass(parts[0], weight,
                           static_cast<Index>(priority), sloMs * 1e-3));
        mix.push_back(std::move(cls));
    }
    return mix;
}

Index
quantizeBatch(Index n)
{
    static constexpr std::array<Index, 10> kBuckets = {
        1, 2, 4, 8, 12, 16, 24, 32, 48, 64};
    CFCONV_FATAL_IF(n < 1, "quantizeBatch: batch must be >= 1");
    for (Index bucket : kBuckets)
        if (n <= bucket)
            return bucket;
    return kMaxServeBatch;
}

BatchCostModel::BatchCostModel(const ModelMix &mix) : mix_(mix)
{
    CFCONV_FATAL_IF(mix_.empty(), "BatchCostModel: empty model mix");
    for (const auto &cls : mix_) {
        CFCONV_FATAL_IF(cls.factory == nullptr,
                        "BatchCostModel: class '%s' has no factory",
                        cls.name.c_str());
        perRequestFlops_.push_back(cls.factory(1).totalFlops());
    }
}

const BatchCost &
BatchCostModel::cost(const sim::Accelerator &accelerator,
                     Index classIdx, Index batch,
                     sim::ResilienceInfo *tally)
{
    CFCONV_FATAL_IF(classIdx < 0 ||
                        classIdx >= static_cast<Index>(mix_.size()),
                    "BatchCostModel: class index out of range");
    CFCONV_FATAL_IF(batch < 1, "BatchCostModel: batch must be >= 1");
    const Key key{accelerator.name(), classIdx, batch};
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    auto &cls = mix_[static_cast<size_t>(classIdx)];
    const sim::RunRecord record =
        sim::ModelRunner(accelerator).runModel(cls.factory(batch));

    BatchCost entry;
    // Retry backoff is wasted wall time on the chip: charge it to the
    // service interval so chaos runs see honestly longer batches.
    entry.seconds =
        record.seconds + record.resilience.backoffSeconds;
    entry.perRequestFlops = perRequestFlops_[static_cast<size_t>(classIdx)];
    entry.dramBytes = record.dramBytes;
    entry.resilience = record.resilience;
    ++evaluations_;
    if (tally != nullptr) {
        const sim::ResilienceInfo &r = entry.resilience;
        tally->faultsSeen += r.faultsSeen;
        tally->retries += r.retries;
        tally->failovers += r.failovers;
        tally->layersFailedOver += r.layersFailedOver;
        tally->layersResumed += r.layersResumed;
        tally->backoffSeconds += r.backoffSeconds;
        if (!r.finalBackend.empty())
            tally->finalBackend = r.finalBackend;
    }
    return cache_.emplace(key, entry).first->second;
}

} // namespace cfconv::serve
