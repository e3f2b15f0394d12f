/**
 * @file
 * Batch-aware service-cost model on top of the per-layer simulators:
 * "what does one batched run of model M at batch B cost on chip C?"
 * answered by an actual sim::ModelRunner run and memoized. This is
 * where the serving layer inherits the paper's per-layer fidelity —
 * batch efficiency is not a closed-form guess but the simulated
 * systolic-array / tensor-core occupancy at that batch, so the
 * batching-delay-versus-efficiency trade-off the dynamic batcher
 * optimizes is grounded in the same model the figures validate.
 *
 * Batch quantization: service cost is charged at the next *preferred
 * batch size* >= the actual request count (the Triton/TensorRT
 * padded-batch idiom). Padding waste is honest — useful FLOPs are
 * credited for real requests only — and the bucket set bounds the
 * number of distinct simulator evaluations per (chip, class) pair.
 */

#ifndef CFCONV_SERVE_COST_MODEL_H
#define CFCONV_SERVE_COST_MODEL_H

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "models/model_zoo.h"
#include "sim/accelerator.h"

namespace cfconv::serve {

/** One servable model class of a scenario's mix. */
struct ModelClass
{
    std::string name;
    /** Batch-parameterized spec factory (the model-zoo signature). */
    models::ModelFactory factory = nullptr;
    /** Traffic mix weight (normalized by the workload generator). */
    double weight = 1.0;
    /** Priority tier: lower serves first, and brownout sheds the
     *  highest tier first. All-equal tiers (the default) reduce to the
     *  original cross-class FIFO. */
    Index priority = 0;
    /** Per-class latency SLO; 0 inherits the scenario-wide
     *  ServingConfig::sloSeconds. */
    double sloSeconds = 0.0;
};

/** The mixed model zoo one serving scenario serves. */
using ModelMix = std::vector<ModelClass>;

/**
 * Build a ModelClass named @p name from the zoo model it names
 * (models::findModel). NOT_FOUND listing the valid names when @p name
 * is not in the zoo — the serving layer's front door for
 * user-specified mixes.
 */
StatusOr<ModelClass> makeModelClass(const std::string &name,
                                    double weight = 1.0,
                                    Index priority = 0,
                                    double sloSeconds = 0.0);

/**
 * Parse a comma-separated class-spec list into a ModelMix:
 * "name[:weight[:priority[:sloMs]]]", e.g.
 * "alexnet:3:0:50,zfnet:1:1:100": weight and sloMs are decimal numbers
 * (parseDecimalDouble), priority a whole decimal (parseDecimal).
 * INVALID_ARGUMENT naming the offending token on malformed numbers;
 * NOT_FOUND on unknown models.
 */
StatusOr<ModelMix> parseClassSpecs(const std::string &spec);

/** Largest batch the serving layer forms (the paper-style sweep upper
 *  bound; also the top quantization bucket). */
inline constexpr Index kMaxServeBatch = 64;

/** The next preferred batch size >= @p n (clamped to kMaxServeBatch).
 *  Buckets: 1, 2, 4, 8, 12, 16, 24, 32, 48, 64. */
Index quantizeBatch(Index n);

/** Memoized cost of one batched model run on one chip variant. */
struct BatchCost
{
    double seconds = 0.0;     ///< service time of the padded batch
    Flops perRequestFlops = 0; ///< useful FLOPs of one request
    Bytes dramBytes = 0;      ///< off-chip traffic of the padded batch
    /** Chaos outcome of the underlying evaluation (all-zero when the
     *  fault injector is disarmed). */
    sim::ResilienceInfo resilience;
};

/**
 * The memo table: (chip variant, class, padded batch) -> BatchCost.
 * Evaluations run the real (resilient) ModelRunner and are strictly
 * deterministic, so a warm or cold cache never changes simulated
 * results, only wall time.
 */
class BatchCostModel
{
  public:
    explicit BatchCostModel(const ModelMix &mix);

    /**
     * Cost of class @p classIdx at padded batch @p batch (callers
     * quantize first) on @p accelerator. A fresh evaluation folds its
     * chaos outcome into @p tally when one is given, so a run charges
     * each evaluation exactly once and memo hits never. The reference
     * stays valid for the life of the model (entries are never
     * evicted).
     */
    const BatchCost &cost(const sim::Accelerator &accelerator,
                          Index classIdx, Index batch,
                          sim::ResilienceInfo *tally = nullptr);

    const ModelMix &mix() const { return mix_; }

    /** Distinct simulator evaluations performed (test/report hook). */
    Index evaluations() const { return evaluations_; }

  private:
    using Key = std::tuple<std::string, Index, Index>;

    ModelMix mix_;
    std::map<Key, BatchCost> cache_;
    std::vector<Flops> perRequestFlops_; ///< one request, per class
    Index evaluations_ = 0;
};

} // namespace cfconv::serve

#endif // CFCONV_SERVE_COST_MODEL_H
