/**
 * @file
 * The request-level serving simulator: a discrete-event loop that
 * drives N simulated chips (any sim::Accelerator variants, possibly
 * heterogeneous) with synthetic traffic through the dynamic batcher,
 * admission control and work-stealing dispatch, fastest chip first.
 * run() is the loop and nothing else: requeue stalled batches,
 * dispatch, pick the next event, admit arrivals. Every batch takes one
 * launch path: chaos rolls for its primary chip (and for a hedge chip
 * when the batch is a straggler), then each chip that serves it is
 * booked the same way. Breakers and the degradation ladder are the
 * serve/health policy objects. Admission sheds an arrival only when
 * its class queue is full. Where the rest of the repo answers "how
 * fast is one layer / one model", this layer answers the production
 * questions: throughput versus tail latency, goodput under overload,
 * and tail behaviour while chips fail (fault injector armed,
 * serve.chip_down site).
 *
 * Determinism contract: the event loop is strictly serial over
 * simulated time; every arrival, launch, shed, completion, and chaos
 * decision is a pure function of (TrafficSpec, ServingConfig, fault
 * seed). The only parallelism is inside the per-layer simulators,
 * which are thread-count-deterministic by construction, so the same
 * scenario emits a byte-identical RunRecord at any thread count.
 * Wall-clock never enters the record — only the document-level
 * metrics histograms, which the gates exclude from byte comparison.
 */

#ifndef CFCONV_SERVE_SERVING_SIM_H
#define CFCONV_SERVE_SERVING_SIM_H

#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "serve/batcher.h"
#include "serve/cost_model.h"
#include "serve/health.h"
#include "serve/workload.h"
#include "sim/accelerator.h"

namespace cfconv::serve {

/** One simulated chip: a named accelerator variant (sim/variants.h),
 *  so heterogeneous boards and tuned design points drop in by name. */
struct ChipSpec
{
    std::string variant = "tpu-v2";
};

/** Full configuration of one serving scenario. */
struct ServingConfig
{
    std::vector<ChipSpec> chips = {ChipSpec{}};
    BatchPolicy batch;
    AdmissionPolicy admission;
    /** Latency SLO: a request finishing within this of its arrival
     *  counts toward goodput. */
    double sloSeconds = 50e-3;

    /**
     * How long a batch dispatched onto a failing chip stalls before
     * the failure is detected and the batch re-enters its queue (the
     * timeout a real dispatcher needs to notice a dead chip). The
     * stall — not the outage itself — is what hurts tail latency, and
     * what breakers and hedging exist to avoid.
     */
    double chipOutageDetectionSeconds = 2e-3;
    /** Per-chip circuit breakers (route around repeat offenders). */
    BreakerPolicy breaker;
    /** Overload degradation ladder (shrink -> brownout -> fallback). */
    DegradationPolicy degradation;
    /** Straggler hedging onto a second idle chip. */
    HedgePolicy hedge;
    /**
     * Accelerator variants the degradation ladder may serve on at the
     * AlgorithmFallback step; the cost model picks the cheapest of
     * {chip's own variant} U fallbacks per (class, batch). Variant
     * names (sim/variants.h), validated at construction.
     */
    std::vector<std::string> fallbackVariants;
    /** Scenario label: becomes RunRecord::model, so sweeps emit one
     *  named record per policy point. */
    std::string scenario = "serving";
};

/**
 * Structural validation of @p config, INVALID_ARGUMENT naming the
 * offending field. The ServingSimulator constructor applies it
 * fatally; callers building configs from user input (bench CLI,
 * tests) can pre-check recoverably.
 */
Status validateServingConfig(const ServingConfig &config);

/** Per-model-class outcome tallies of one scenario run. */
struct ClassStats
{
    std::string name;
    Index offered = 0;   ///< arrivals of this class
    Index admitted = 0;  ///< survived admission control
    Index completed = 0; ///< finished (== admitted when run drains)
    Index shed = 0;      ///< rejected at arrival
    Index sloViolations = 0; ///< completed but over the class SLO
    Index brownoutShed = 0;  ///< of shed: dropped by the brownout floor
    Index batches = 0;       ///< batched model runs launched
    double latencySum = 0.0; ///< sum of request latencies
    Scalar latency;          ///< request-latency distribution
    Scalar queueWait;        ///< arrival -> launch distribution
    Flops usefulFlops = 0;   ///< real-request FLOPs completed
    Bytes dramBytes = 0;     ///< padded-batch traffic accumulated
};

/** Everything one scenario run produced. */
struct ServingResult
{
    /** The unified record (schema of sim/report), ready for
     *  writeRunRecords: one LayerRecord per served model class,
     *  serving metrics in the extras, chaos outcome in the
     *  resilience block. */
    sim::RunRecord record;

    double makespanSeconds = 0.0; ///< time 0 .. last completion
    Index offered = 0;
    Index completed = 0;
    Index shed = 0;
    Index sloViolations = 0;
    double throughputRps = 0.0; ///< completed / makespan
    double goodputRps = 0.0;    ///< completed within SLO / makespan
    double shedFraction = 0.0;  ///< shed / offered
    /** Request-latency percentiles (simulated seconds). */
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, p999 = 0.0;
    double meanBatch = 0.0;     ///< requests per launched batch
    Index chipDownEvents = 0;
    Index evaluations = 0;      ///< cost-model simulator runs
    std::vector<ClassStats> classes;

    /** Resilience-layer outcome (also mirrored into
     *  record.resilience.serving for chaos documents). */
    Index breakerTrips = 0;
    Index breakerProbes = 0;
    Index breakerCloses = 0;
    Index hedgedBatches = 0;
    Index hedgeWins = 0;
    Index hedgeLosses = 0;
    Index brownoutShed = 0;
    Index fallbackBatches = 0;
    Index degradeStepMax = 0;
    Index degradeTransitions = 0;
    /** Simulated seconds the ladder held each step (index 0..3). */
    double degradeSeconds[4] = {0.0, 0.0, 0.0, 0.0};
};

/**
 * The simulator. Owns one accelerator instance per distinct chip
 * variant (chips of the same variant share it, and its memo caches)
 * and a BatchCostModel; both persist across run() calls so policy
 * sweeps over the same mix reuse every evaluation.
 */
class ServingSimulator
{
  public:
    ServingSimulator(ServingConfig config, ModelMix mix);

    /** Run one scenario to completion (all admitted requests drain).
     *  Deterministic for a given (config, traffic, fault seed). */
    ServingResult run(const TrafficSpec &traffic);

    const ServingConfig &config() const { return config_; }
    BatchCostModel &costModel() { return costModel_; }

    /** Replace the policy knobs between sweep points (chips and mix
     *  stay, so caches survive). */
    void setPolicy(const BatchPolicy &batch,
                   const AdmissionPolicy &admission);
    void setScenario(const std::string &scenario);

  private:
    ServingConfig config_;
    BatchCostModel costModel_;
    /** Distinct variants instantiated once; chips and fallbacks below
     *  point into it. */
    std::vector<std::unique_ptr<sim::Accelerator>> accelerators_;
    std::vector<const sim::Accelerator *> chipAccel_; ///< per chip
    std::vector<size_t> chipOrder_; ///< dispatch preference (fast first)
    /** Fallback-variant instances for the AlgorithmFallback step. */
    std::vector<const sim::Accelerator *> fallbackAccel_;
};

/** Compact board label for RunRecord::accelerator, e.g.
 *  "serve:4xtpu-v2" or "serve:2xtpu-v2+1xgpu-v100". */
std::string describeChips(const std::vector<ChipSpec> &chips);

} // namespace cfconv::serve

#endif // CFCONV_SERVE_SERVING_SIM_H
