/**
 * @file
 * Offline analytics over a parsed trace (analyze/trace_model.h): the
 * paper's characterization methodology as code. From the
 * simulated-cycles clock domain it reconstructs each layer's
 * fill/compute timeline (both simulators draw it through
 * conv::OverlapSchedule: the TPU's double-buffered units, one GPU
 * thread block's k-steps) and computes the numbers the paper reads
 * off Figs 9-14 by hand: how many fill cycles hide under
 * compute (overlap ratio), how many are exposed on the critical path,
 * how much of the timeline is idle, and whether the layer is fill- or
 * compute-bound. Serving traces yield per-chip busy/down/idle
 * occupancy (outage instants attribute idle to faults); chaos traces
 * yield fault/failover counts. Resilient serving traces additionally
 * yield per-chip circuit-breaker timelines (trip/probe/close), hedge
 * win/loss tallies, and degradation-ladder step occupancy, so two
 * chaos runs can be diffed breaker-for-breaker. The wall-clock domain
 * contributes pool
 * queue-depth / active-worker utilization integrals and memo-cache
 * hit/miss activity.
 *
 * Determinism contract: everything outside the `wall` section is a
 * pure function of the simulated-cycle content of the trace, which
 * the simulators emit identically at any thread count — timelines are
 * grouped by track *label* (tid allocation order varies across
 * thread counts), sorted by content, and exact duplicates (concurrent
 * memo-cache misses recompute identical timelines) are collapsed. The
 * `wall` section integrates real timestamps and so varies run to run;
 * AnalyzeOptions::includeWall=false drops it, which is what the
 * byte-identity gate (scripts/check_analyze.sh) compares across
 * thread counts.
 */

#ifndef CFCONV_ANALYZE_ANALYSIS_H
#define CFCONV_ANALYZE_ANALYSIS_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze/trace_model.h"

namespace cfconv::analyze {

/** Analyzer knobs (the trace_analyze CLI's wall=on|off). */
struct AnalyzeOptions
{
    /** Include the wall-clock section (pool counter integrals, cache
     *  activity, runner span tallies). Off for byte-identity
     *  comparisons: wall timestamps differ between runs. */
    bool includeWall = true;
};

/**
 * One reconstructed fill/compute timeline: a fill row paired with its
 * compute row. All cycle fields are exact interval arithmetic on the
 * recorded spans; the identity span == compute + exposedFill + idle
 * holds by construction.
 */
struct TimelineAnalysis
{
    std::string key;       ///< track label minus the phase suffix
    std::string signature; ///< cross-backend identity (see timelineSignature)
    std::string kind;      ///< "conv", "gemm", or "other"
    std::string style;     ///< lowering word from the label, e.g. "cf-conv"
    int instance = 0;      ///< ordinal among same-key timelines

    double spanCycles = 0.0;        ///< first start to last end
    double computeCycles = 0.0;     ///< union of compute spans
    double fillCycles = 0.0;        ///< union of fill spans
    double overlapCycles = 0.0;     ///< fill hidden under compute
    double exposedFillCycles = 0.0; ///< fill on the critical path
    double idleCycles = 0.0;        ///< neither filling nor computing

    std::size_t fillSpans = 0;    ///< fill segments (unit/tile structure)
    std::size_t computeSpans = 0; ///< compute segments (units simulated)

    double overlapRatio = 0.0;     ///< overlap / fill (1 = fully hidden)
    double computeFrac = 0.0;      ///< compute / span
    double exposedFillFrac = 0.0;  ///< exposedFill / span
    double idleFrac = 0.0;         ///< idle / span
    double fillResidency = 0.0;    ///< fill / span (fill-row occupancy)
    double computeResidency = 0.0; ///< compute / span
    bool fillBound = false;        ///< fill > compute (paper's memory-bound)
};

/** Run-level critical-path rollup over every conv/gemm timeline. */
struct CriticalPathBreakdown
{
    std::size_t timelines = 0;
    double spanCycles = 0.0;
    double computeCycles = 0.0;
    double fillCycles = 0.0;
    double overlapCycles = 0.0;
    double exposedFillCycles = 0.0;
    double idleCycles = 0.0;
    double overlapRatio = 0.0;    ///< Σoverlap / Σfill
    double computeFrac = 0.0;     ///< Σcompute / Σspan
    double exposedFillFrac = 0.0; ///< Σexposed / Σspan
    double idleFrac = 0.0;        ///< Σidle / Σspan
};

/** A simulated-cycles row that is not part of a fill/compute pair
 *  (functional-core rounds, chaos tracks, ...). */
struct GenericTrack
{
    std::string label;
    std::size_t spans = 0;
    std::size_t instants = 0;
    double busyCycles = 0.0; ///< union of the row's spans
    double spanCycles = 0.0; ///< first start to last end
};

/** Occupancy of one serving chip track ("serve chipN (variant)").
 *  A bench may run several serving scenarios in one trace session;
 *  each allocates fresh chip tracks (restarting the tick axis), so
 *  every track is its own occupancy row, tagged with the scenario
 *  ordinal its label occurrence implies (allocation order). */
struct ChipOccupancy
{
    std::string track;   ///< full track label
    int run = 0;         ///< scenario ordinal within the trace
    int chip = -1;       ///< chip index parsed from the label
    std::string variant; ///< accelerator variant parsed from the label
    std::size_t batches = 0; ///< batch spans served
    double requests = 0.0;   ///< Σ span "batch" args
    std::size_t outages = 0; ///< chip_down instants
    double busyTicks = 0.0;  ///< serving batches
    double downTicks = 0.0;  ///< in outage repair (from instant args)
    double idleTicks = 0.0;  ///< makespan - busy - down
    double makespanTicks = 0.0; ///< fleet-wide last span end, same run
    double occupancy = 0.0;     ///< busy / makespan
};

/** Chaos activity read back from the resilience instants. */
struct ResilienceEvents
{
    std::size_t faults = 0;
    std::size_t failovers = 0;
    std::size_t chipDownEvents = 0;
};

/** One circuit-breaker state change on a chip track, in tick order.
 *  State is "open" (trip), "probe" (half-open canary dispatch), or
 *  "closed" (canary quota met, chip restored). */
struct BreakerEvent
{
    double tick = 0.0;
    std::string state;
};

/** Per-chip serving-resilience activity: breaker events and hedge
 *  outcomes read off the chip's serving track. Rows exist only for
 *  chips with at least one event, so stock serving traces produce
 *  none. */
struct ChipResilience
{
    std::string track;   ///< full track label
    int run = 0;         ///< scenario ordinal (matches ChipOccupancy)
    int chip = -1;       ///< chip index parsed from the label
    std::string variant; ///< accelerator variant parsed from the label
    std::size_t trips = 0;   ///< breaker_open instants
    std::size_t probes = 0;  ///< breaker_probe instants
    std::size_t closes = 0;  ///< breaker_close instants
    double openTicks = 0.0;  ///< Σ configured open-window ticks
    std::size_t hedgeWins = 0;   ///< hedge races won by this chip
    std::size_t hedgeLosses = 0; ///< hedge races this chip's batch lost
    std::vector<BreakerEvent> timeline; ///< tick-ordered state changes
};

/** Degradation-ladder occupancy for one serving scenario, integrated
 *  from the "serve degradation" track's step instants: how long the
 *  scenario spent at each ladder step. */
struct DegradationOccupancy
{
    int run = 0; ///< ordinal among degradation-enabled scenarios
    std::size_t transitions = 0; ///< step changes after the initial state
    int maxStep = 0;             ///< deepest step reached
    double stepTicks[4] = {0.0, 0.0, 0.0, 0.0}; ///< residency per step
};

/** The serving-resilience section: breaker timelines, hedge tallies,
 *  and degradation-step occupancy. Empty (any() == false) for traces
 *  recorded without breakers/hedging/degradation. */
struct ServingResilience
{
    std::vector<ChipResilience> chips; ///< sorted by (run, chip, track)
    std::vector<DegradationOccupancy> degradation; ///< sorted by run
    std::size_t hedgeWins = 0;   ///< Σ over chips
    std::size_t hedgeLosses = 0; ///< Σ over chips

    bool any() const { return !chips.empty() || !degradation.empty(); }
};

/** Time-weighted summary of one wall-clock counter track. */
struct CounterStats
{
    std::size_t samples = 0;
    double min = 0.0;
    double max = 0.0;
    double timeWeightedMean = 0.0; ///< integral / observed duration
    double last = 0.0;
};

/** Hit/miss tallies of one memo cache ("layer_cache", ...). */
struct CacheActivity
{
    double hits = 0.0;
    double misses = 0.0;
};

/** The run-to-run-varying wall-clock section. */
struct WallStats
{
    std::size_t events = 0;     ///< wall-clock events in the trace
    std::size_t modelSpans = 0; ///< runner "runModel ..." spans
    std::size_t layerSpans = 0; ///< runner "... layer ..." spans
    double layerWallUsTotal = 0.0;
    std::map<std::string, CounterStats> counters;
    std::map<std::string, CacheActivity> caches;
};

/** Everything the analyzer extracts from one trace. */
struct TraceAnalysis
{
    /** Sorted unique identities parsed from runner span names/args;
     *  thread-count invariant (one model span per run). */
    std::vector<std::string> models;
    std::vector<std::string> accelerators;
    std::vector<std::string> algorithms;
    std::vector<std::string> variants;

    std::vector<TimelineAnalysis> timelines; ///< sorted by (key, instance)
    CriticalPathBreakdown criticalPath;
    std::vector<GenericTrack> otherTracks; ///< sorted by (label, content)
    std::vector<ChipOccupancy> chips;      ///< sorted by (run, chip)

    ResilienceEvents resilience;
    bool hasResilience = false;

    ServingResilience serving;
    bool hasServingResilience = false;

    WallStats wall;
    bool hasWall = false;
};

/** Analyze one parsed trace. Pure function of @p doc and @p options. */
TraceAnalysis analyzeTrace(const TraceDocument &doc,
                           const AnalyzeOptions &options = {});

/**
 * The cross-backend / cross-algorithm identity of a timeline key:
 * conv labels ("conv 3x3 64->64 M=12544", "cf-conv 3x3 64->128")
 * normalize to kernel + channels ("3x3 64->64") — the lowering word
 * and the TPU-only M= tail drop out, so the same model layer aligns
 * between tpu-v2 and gpu-v100 and between channel-first and indirect
 * runs. Non-conv labels pass through unchanged.
 */
std::string timelineSignature(const std::string &key);

/** Total union length of @p spans given as (start, end) pairs.
 *  Exposed for the synthetic-timeline unit tests. */
double unionCycles(std::vector<std::pair<double, double>> spans);

} // namespace cfconv::analyze

#endif // CFCONV_ANALYZE_ANALYSIS_H
