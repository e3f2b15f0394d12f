/**
 * @file
 * Design-space autotuner over the variant zoo. The paper's Sec. VI/VII
 * message is that the best (array size, buffer word, kernel choice)
 * shifts per layer shape; this component makes that actionable: given
 * a layer (or a whole model-zoo network), simulate it on every variant
 * of a small search space — each a *named variant* of sim/variants.h,
 * so every tuned choice is reproducible by name — and report the
 * fastest against a named baseline, the first listed variant winning a
 * tie.
 * Candidate simulations run in parallel via common/parallel and are
 * memoized process-wide via common/memo_cache, and an optional
 * TunedConfigDb turns repeat runs into pure lookups (zero search
 * evaluations).
 */

#ifndef CFCONV_TUNE_AUTOTUNER_H
#define CFCONV_TUNE_AUTOTUNER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "models/model_zoo.h"
#include "sim/variants.h"
#include "tune/tuned_db.h"

namespace cfconv::tune {

/**
 * A search space over named variants: a backend family and the
 * variants the tuner simulates, in the order that breaks time ties
 * (the first listed wins).
 */
struct KnobSpace
{
    sim::Backend family = sim::Backend::Tpu;
    std::vector<std::string> variants;

    size_t points() const { return variants.size(); }
};

/** The built-in TPU space: array size {64,128,256} x vector-memory
 *  word {4,8,16} x algorithm {chfirst,indirect,smm}, listed in that
 *  nesting order; "tpu-v2" is the (128, 8, chfirst) variant. */
KnobSpace tpuKnobSpace();

/** The built-in GPU space: kernel {channel-first, channel-last,
 *  explicit-im2col, indirect, smm} x tuning effort {stock, vendor},
 *  listed in that nesting order; "gpu-v100" is the (channel-first,
 *  stock) variant. */
KnobSpace gpuKnobSpace();

/** One tuner invocation's knobs. */
struct TuneOptions
{
    /** Named baseline variant; must be one of the space's variants.
     *  Every win is reported relative to it. */
    std::string baseline;
    /** Optional persistent database: consulted before searching (a hit
     *  is returned with zero evaluations) and updated with every fresh
     *  search result. Not owned. */
    TunedConfigDb *db = nullptr;
};

/** The tuner's verdict for one layer. */
struct LayerTuneChoice
{
    std::string layerName;
    std::string geometry; ///< canonical ConvParams::toString()
    Index groups = 1;
    Index count = 1;      ///< repetitions in the source model
    std::string variant;  ///< winning named variant
    double tunedSeconds = 0.0;    ///< winner, one instance
    double baselineSeconds = 0.0; ///< baseline, one instance
    /** Fresh candidate simulations this choice cost (0 on a DB hit or
     *  when every candidate was already memoized in-process). */
    Index evaluations = 0;
    bool fromDb = false; ///< answered from the TunedConfigDb

    double speedup() const
    {
        return tunedSeconds > 0.0 ? baselineSeconds / tunedSeconds
                                  : 0.0;
    }
};

/** Aggregate verdict for one model. */
struct ModelTuneResult
{
    std::string model;
    std::string baseline;
    std::vector<LayerTuneChoice> layers;
    double baselineSeconds = 0.0; ///< sum incl. layer repetitions
    double tunedSeconds = 0.0;    ///< sum incl. layer repetitions
    Index evaluations = 0;        ///< fresh simulations across layers
    Index dbHits = 0;             ///< layers answered from the DB

    double speedup() const
    {
        return tunedSeconds > 0.0 ? baselineSeconds / tunedSeconds
                                  : 0.0;
    }
};

/**
 * The searcher. Construction (via create) resolves every variant
 * against the variant table once and instantiates the accelerators, so
 * the per-layer search loop is allocation-light and any zoo mismatch is
 * a construction-time Status, not a mid-search fatal.
 */
class Autotuner
{
  public:
    /** Validate @p space (every variant must be in the variant table
     *  and of the space's family) and build the candidate accelerators. */
    static StatusOr<std::unique_ptr<Autotuner>> create(KnobSpace space);

    const KnobSpace &space() const { return space_; }

    /** Tune one layer. NOT_FOUND for a baseline outside the space,
     *  INVALID_ARGUMENT for a bad layer geometry; otherwise always
     *  yields a choice (worst case the baseline itself). */
    StatusOr<LayerTuneChoice>
    tuneLayer(const models::ConvLayerSpec &layer,
              const TuneOptions &options);

    /** Tune every layer of @p model and aggregate. */
    StatusOr<ModelTuneResult> tuneModel(const models::ModelSpec &model,
                                        const TuneOptions &options);

    /** Snapshot of the process-wide tune-cache counters. */
    static StatGroup cacheStats();

  private:
    explicit Autotuner(KnobSpace space);

    /** Memoized candidate evaluation: seconds of one instance of
     *  (params, groups) on the space's variant @p index. Thread-safe;
     *  bumps @p evaluations on a fresh simulation. Candidates whose
     *  algorithm rejects the layer score +infinity without being
     *  simulated, counted, or cached. */
    double evaluate(size_t index, const tensor::ConvParams &params,
                    Index groups,
                    std::atomic<Index> &evaluations) const;

    /** Index of the fastest variant on (params, groups); the first
     *  listed wins a tie, at any thread count. */
    size_t search(const tensor::ConvParams &params, Index groups,
                  std::atomic<Index> &evaluations) const;

    KnobSpace space_;
    std::vector<std::unique_ptr<sim::Accelerator>> candidates_;
};

} // namespace cfconv::tune

#endif // CFCONV_TUNE_AUTOTUNER_H
