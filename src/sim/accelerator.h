/**
 * @file
 * The common accelerator abstraction over the backend simulators. The
 * paper's point is that one algorithm family — GEMM-lowered implicit
 * convolution — maps onto both a weight-stationary systolic TPU
 * (Sec. IV/VI) and tensor-core GPUs (Sec. V); this layer gives the
 * two simulators one API so model runs, sweeps, caching, and report
 * emission are written once. Backend-specific knobs stay where they
 * belong: in the adapter constructors (tpu_accelerator.h,
 * gpu_accelerator.h) and in each LayerRecord's `extras` map.
 */

#ifndef CFCONV_SIM_ACCELERATOR_H
#define CFCONV_SIM_ACCELERATOR_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "tensor/conv_params.h"

namespace cfconv::conv {
class Algorithm;
} // namespace cfconv::conv

namespace cfconv::sim {

using tensor::ConvParams;

/** Backend-independent per-layer run knobs. */
struct RunOptions
{
    /**
     * Grouped-convolution factor. Each backend maps groups its own
     * way (the TPU packs group slices block-diagonally into the
     * array; the GPU launches one kernel per group slice), which is
     * exactly why the knob lives here and not in the params.
     */
    Index groups = 1;
    /**
     * Retry ordinal of this invocation (0 = first try). Purely
     * bookkeeping for the fault layer: the `accel.step_timeout`
     * injection decision is keyed on (backend, geometry, attempt), so
     * a retried layer rolls a fresh — but still deterministic — die.
     * Backends ignore it; it is not part of any memo-cache key.
     */
    Index attempt = 0;
};

/** Unified result of simulating one layer on any backend. */
struct LayerRecord
{
    std::string name;     ///< layer name (empty for ad-hoc layers)
    std::string geometry; ///< ConvParams::toString() of the full layer
    Index count = 1;      ///< repetitions of this shape in the model
    Index groups = 1;     ///< grouped-convolution factor
    double seconds = 0.0; ///< one instance, end to end
    double tflops = 0.0;  ///< useful FLOPs / second
    /**
     * Fraction of the backend's peak compute actually used: the
     * systolic-array occupancy on the TPU, achieved/peak TFLOPS on
     * the GPU.
     */
    double utilization = 0.0;
    Bytes dramBytes = 0;  ///< off-chip traffic of one instance
    Flops flops = 0;      ///< useful FLOPs of one instance
    /**
     * Canonical conv::Algorithm name of the lowering scheme this
     * backend ran, e.g. "channel-first" or "indirect". Empty only on
     * serving class rows, which aggregate a whole board.
     */
    std::string algorithm;
    /**
     * Backend-specific fields, e.g. "multiTile", "portUtilization",
     * "exposedFillFrac" (TPU) or "memoryBound", "computeSeconds",
     * "memorySeconds" (GPU). std::map so iteration order — and the
     * emitted JSON — is deterministic.
     */
    std::map<std::string, double> extras;
};

/**
 * Serving-layer resilience outcome (src/serve): what the circuit
 * breakers, degradation ladder, and hedged dispatch did during one
 * board run. Nested inside ResilienceInfo as its "serving" object;
 * all zero and inactive outside the serving simulator.
 */
struct ServingResilienceInfo
{
    /** Whether any serving resilience feature (breakers, degradation,
     *  hedging) was enabled for this run. */
    bool active = false;
    Index breakerTrips = 0;   ///< closed/half-open -> open transitions
    Index breakerProbes = 0;  ///< half-open canary batches launched
    Index breakerCloses = 0;  ///< half-open -> closed recoveries
    Index hedgedBatches = 0;  ///< batches launched on two chips
    Index hedgeWins = 0;      ///< hedge chip delivered first (or saved
                              ///< the batch from a primary outage)
    Index hedgeLosses = 0;    ///< primary delivered first; hedge wasted
    Index degradeStepMax = 0; ///< deepest degradation-ladder step held
    Index degradeTransitions = 0; ///< ladder step changes (both ways)
    Index brownoutShed = 0;   ///< requests shed by low-priority brownout
    Index fallbackBatches = 0; ///< batches served by a fallback variant
};

/**
 * Resilience outcome of one model run: what the fault layer injected
 * and what the resilient runner did about it. Every record carries
 * it; a fault-free run has `active == false` and all-zero counters.
 */
struct ResilienceInfo
{
    /** Whether the FaultInjector was armed during this run. */
    bool active = false;
    Index faultsSeen = 0;       ///< failed layer attempts observed
    Index retries = 0;          ///< same-backend re-attempts
    Index failovers = 0;        ///< backend switches performed
    Index layersFailedOver = 0; ///< layers completed on a failover backend
    Index layersResumed = 0;    ///< checkpointed layers skipped at failover
    double backoffSeconds = 0.0; ///< total simulated retry backoff
    /** Backend of the last failover; empty when the primary finished
     *  the whole model. */
    std::string finalBackend;
    /** Serving-layer outcome; inactive for model-level runs. */
    ServingResilienceInfo serving;
};

/** Unified result of one model run on one backend. */
struct RunRecord
{
    /** Version of the RunRecord JSON schema (sim/report). Every
     *  document stamps it and emits every field of these structs. */
    static constexpr long long kSchemaVersion = 6;

    std::string accelerator;  ///< backend name, e.g. "tpu-v2"
    std::string model;        ///< model name, e.g. "ResNet"
    Index batch = 0;          ///< batch size the layers were built with
    double peakTflops = 0.0;  ///< backend peak compute
    double seconds = 0.0;     ///< total incl. layer repetitions
    double tflops = 0.0;      ///< useful FLOPs / second, whole model
    Bytes dramBytes = 0;      ///< total off-chip traffic incl. reps
    std::vector<LayerRecord> layers; ///< one entry per distinct layer
    ResilienceInfo resilience;       ///< chaos outcome
};

/** Abstract accelerator: what ModelRunner and the benches program
 *  against. Implementations adapt tpusim::TpuSim and gpusim::GpuSim. */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Stable backend identifier, e.g. "tpu-v2", "gpu-v100". */
    virtual std::string name() const = 0;

    /** Peak useful TFLOPS of the configured hardware. */
    virtual double peakTflops() const = 0;

    /** Simulate one (possibly grouped) convolution layer; a layer
     *  that fails ConvParams::validate(options.groups) is fatal. */
    virtual LayerRecord runLayer(const ConvParams &params,
                                 const RunOptions &options = {}) const
        = 0;

    /**
     * The recoverable front door to runLayer(): returns the
     * algorithm's supports() Status (tensor::checkLayer() plus the
     * algorithm's own domain) for a layer it refuses, rolls the
     * `accel.step_timeout` chaos die scoped to this backend's name
     * while the fault injector is armed, and converts any FatalError/PanicError escaping the backend into
     * a Status (INVALID_ARGUMENT / INTERNAL) instead of unwinding
     * through the thread pool. What the resilient ModelRunner programs
     * against.
     */
    StatusOr<LayerRecord> tryRunLayer(const ConvParams &params,
                                      const RunOptions &options = {})
        const;

    /** Snapshot of this backend's memo-cache counters. */
    virtual StatGroup cacheStats() const = 0;

    /**
     * The registered conv::Algorithm whose pass plan this backend
     * schedules (never null). tryRunLayer consults its supports()
     * predicate, so an accelerator configured for, say, SMM-Conv
     * rejects strided layers with INVALID_ARGUMENT instead of dying in
     * the kernel model.
     */
    virtual const conv::Algorithm *algorithm() const = 0;
};

/**
 * Factory over the named accelerator zoo (sim/variants.h). The stock
 * configurations — "tpu-v2" (Table II core), "tpu-v3ish" (v2 core with
 * a second matrix unit and faster HBM — the Fig 16b insight),
 * "gpu-v100" (the paper's V100 + our channel-first kernel),
 * "gpu-v100-cudnn" (vendor-tuned channel-last baseline) — come first;
 * the design-space sweep variants (array/word/buffer/algorithm points)
 * follow. Fatal on unknown names so typos surface.
 */
std::unique_ptr<Accelerator> makeAccelerator(const std::string &name);

/** makeAccelerator that reports an unknown name as a NOT_FOUND Status
 *  (listing the valid names) instead of fatal — what the failover
 *  chain (whose backend names come from user-written chaos specs)
 *  resolves through. */
StatusOr<std::unique_ptr<Accelerator>>
tryMakeAccelerator(const std::string &name);

} // namespace cfconv::sim

#endif // CFCONV_SIM_ACCELERATOR_H
