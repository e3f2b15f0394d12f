#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "sim/variants.h"

namespace cfconv::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Repair interval after a serve.chip_down injection. */
constexpr double kChipDowntimeSeconds = 25e-3;

/** Simulated seconds -> the integer clock of the trace's simulated
 *  rows (nanosecond ticks; the recorder only needs ordering). */
std::uint64_t
toTraceTicks(double seconds)
{
    return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

/** A batch stalled on a failing chip, waiting out the outage-detection
 *  window before it re-enters its queue. */
struct PendingBatch
{
    double at = 0.0; ///< requeue instant
    Index cls = 0;
    std::vector<QueuedRequest> batch;
};

/** How one copy of a batch shows on its chip's trace track. */
struct CopyTag
{
    bool hedge = false;
    bool fallback = false;
    bool canary = false;
};

std::vector<Index>
classPriorities(const ModelMix &mix)
{
    std::vector<Index> priorities;
    for (const auto &cls : mix)
        priorities.push_back(cls.priority);
    return priorities;
}

/** Each class's SLO, falling back to the scenario-wide one. */
std::vector<double>
classSlos(const ModelMix &mix, double scenarioSlo)
{
    std::vector<double> slos;
    for (const auto &cls : mix)
        slos.push_back(cls.sloSeconds > 0.0 ? cls.sloSeconds : scenarioSlo);
    return slos;
}

/** Add the run's non-zero serving counters to the metrics registry,
 *  once per run. */
void
countServing(const ServingResult &r)
{
    const std::pair<const char *, Index> totals[] = {
        {"serve.breaker_trips", r.breakerTrips},
        {"serve.breaker_probes", r.breakerProbes},
        {"serve.breaker_closes", r.breakerCloses},
        {"serve.degrade_transitions", r.degradeTransitions},
        {"serve.hedged_batches", r.hedgedBatches},
        {"serve.hedge_wins", r.hedgeWins},
        {"serve.hedge_losses", r.hedgeLosses},
        {"serve.fallback_batches", r.fallbackBatches},
        {"serve.requests_shed", r.shed},
        {"serve.brownout_shed", r.brownoutShed},
        {"serve.scenarios", 1},
    };
    auto &metrics = MetricsRegistry::instance();
    for (const auto &[name, total] : totals)
        if (total > 0)
            metrics.add(name, static_cast<double>(total));
}

/**
 * Everything one ServingSimulator::run() mutates, with one method per
 * phase of its event loop. The simulator's own state (chips, cost
 * memo, dispatch order) is borrowed, never copied.
 */
class ServingRun
{
  public:
    ServingRun(
        const ServingConfig &config, BatchCostModel &costs,
        const std::vector<const sim::Accelerator *> &chipAccel,
        const std::vector<const sim::Accelerator *> &fallbacks,
        const std::vector<size_t> &chipOrder, const TrafficSpec &traffic)
        : config_(config), costs_(costs), mix_(costs.mix()),
          chipAccel_(chipAccel), fallbacks_(fallbacks), chipOrder_(chipOrder),
          numChips_(config.chips.size()), bouncedChip_(mix_.size(), -1),
          queue_(static_cast<Index>(mix_.size()), config.batch,
                 config.admission, classPriorities(mix_),
                 classSlos(mix_, config.sloSeconds)),
          health_(numChips_, config.breaker), ladder_(config.degradation),
          availableAt_(numChips_, 0.0)
    {
        result_.classes.resize(mix_.size());
        for (size_t c = 0; c < mix_.size(); ++c) {
            result_.classes[c].name = mix_[c].name;
            minTier_ = std::min(minTier_, mix_[c].priority);
            maxTier_ = std::max(maxTier_, mix_[c].priority);
        }
        resilience_.active = fault::FaultInjector::instance().armed();

        TrafficSpec spec = traffic;
        if (spec.classWeights.empty())
            for (const auto &cls : mix_)
                spec.classWeights.push_back(cls.weight);
        CFCONV_FATAL_IF(spec.classWeights.size() != mix_.size(),
                        "ServingSimulator: classWeights/mix size mismatch");
        arrivals_ = generateArrivals(spec);

        tracks_.reserve(numChips_);
        for (size_t i = 0; i < numChips_; ++i)
            tracks_.push_back(trace::simTrack(
                "serve chip" + std::to_string(i) + " (" +
                config_.chips[i].variant + ")"));
        if (config_.degradation.enabled) {
            degradeTrack_ = trace::simTrack("serve degradation");
            trace::simInstant(degradeTrack_, "degrade_step", 0,
                              {{"step", 0.0}});
        }
    }

    // Requeue stalled batches whose detection window elapsed — newest
    // first, so requeueFront leaves the oldest arrivals at the very front
    // of their class queue.
    void
    requeueStalled(double now)
    {
        for (size_t i = pending_.size(); i-- > 0;) {
            if (pending_[i].at > now)
                continue;
            queue_.requeueFront(pending_[i].cls, pending_[i].batch);
            pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }

    // Dispatch every batch launchable at `now`. Returns when no launchable
    // class or no dispatchable chip remains.
    void
    dispatch(double now)
    {
        observeLadder(now);
        for (;;) {
            const Index cls = queue_.launchableClass(now);
            if (cls < 0)
                return;
            // Work-stealing pull over the chips health allows: closed
            // breakers first in preference order; when none is idle, a
            // half-open chip may take the batch alone as its canary probe.
            idle_.clear();
            for (size_t chip : chipOrder_)
                if (availableAt_[chip] <= now &&
                    health_.dispatchable(chip, now))
                    idle_.push_back(chip);
            const bool canary = idle_.empty();
            if (canary) {
                for (size_t chip : chipOrder_)
                    if (availableAt_[chip] <= now &&
                        health_.canaryReady(chip, now)) {
                        idle_.push_back(chip);
                        break;
                    }
                if (idle_.empty())
                    return;
                health_.markCanary(idle_.front());
                trace::simInstant(tracks_[idle_.front()], "breaker_probe",
                                  toTraceTicks(now));
            }
            launch(now, cls, canary,
                   queue_.pop(cls, queue_.effectiveMaxBatch()));
        }
    }

    // The next event: the next arrival, the earliest stalled-batch
    // requeue, and — while work is queued — the earliest strictly-future
    // max-wait deadline and the earliest chip-ready instant (a chip busy,
    // down, or breaker-blocked).
    double
    nextEvent(double now) const
    {
        double t = kInf;
        if (next_ < arrivals_.size())
            t = std::min(t, arrivals_[next_].arrivalSeconds);
        for (const PendingBatch &p : pending_)
            t = std::min(t, p.at);
        if (queue_.totalDepth() > 0) {
            // A deadline at or before `now` means dispatch was blocked by
            // busy chips, not by the wait policy: the next real event is
            // then a chip freeing up, so only strictly future deadlines
            // count (else the loop would never advance).
            const double deadline = queue_.nextDeadline();
            if (deadline > now)
                t = std::min(t, deadline);
            for (size_t chip = 0; chip < numChips_; ++chip) {
                const double ready = chipReadyAt(chip);
                if (ready > now)
                    t = std::min(t, ready);
            }
        }
        CFCONV_FATAL_IF(t == kInf, "ServingSimulator: event loop stalled");
        return std::max(now, t);
    }

    // Offer every arrival up to `now` to admission control.
    void
    admitArrivals(double now)
    {
        while (next_ < arrivals_.size() &&
               arrivals_[next_].arrivalSeconds <= now) {
            const Request &req = arrivals_[next_++];
            auto &cstats = result_.classes[static_cast<size_t>(req.classIdx)];
            ++cstats.offered;
            if (queue_.offer(req))
                ++cstats.admitted;
            else
                ++cstats.shed;
        }
    }

    // Close the ladder and roll the run up into its ServingResult.
    ServingResult
    finish()
    {
        ladder_.finalize(makespan_);
        if (config_.degradation.enabled)
            trace::simInstant(
                degradeTrack_, "degrade_end", toTraceTicks(makespan_),
                {{"step", static_cast<double>(ladder_.step())}});

        ServingResult &r = result_;
        Index batches = 0;
        for (size_t c = 0; c < r.classes.size(); ++c) {
            ClassStats &cstats = r.classes[c];
            cstats.brownoutShed =
                queue_.brownoutShedCount(static_cast<Index>(c));
            r.offered += cstats.offered;
            r.completed += cstats.completed;
            r.shed += cstats.shed;
            r.sloViolations += cstats.sloViolations;
            r.brownoutShed += cstats.brownoutShed;
            batches += cstats.batches;
        }
        r.makespanSeconds = makespan_;
        r.evaluations = costs_.evaluations();
        r.breakerTrips = health_.trips();
        r.breakerProbes = health_.probes();
        r.breakerCloses = health_.closes();
        r.degradeStepMax = ladder_.maxStepReached();
        r.degradeTransitions = ladder_.transitions();
        for (Index s = 0; s < 4; ++s)
            r.degradeSeconds[s] = ladder_.secondsAtStep(s);
        if (makespan_ > 0.0) {
            r.throughputRps = static_cast<double>(r.completed) / makespan_;
            r.goodputRps =
                static_cast<double>(r.completed - r.sloViolations) / makespan_;
        }
        if (r.offered > 0)
            r.shedFraction =
                static_cast<double>(r.shed) / static_cast<double>(r.offered);
        if (latencyAll_.count() > 0) {
            r.p50 = latencyAll_.p50();
            r.p95 = latencyAll_.p95();
            r.p99 = latencyAll_.p99();
            r.p999 = latencyAll_.p999();
        }
        if (batches > 0)
            r.meanBatch = static_cast<double>(launchedRequests_) /
                          static_cast<double>(batches);
        buildRecord();
        countServing(r);
        return std::move(r);
    }

    /** No arrival left to admit, nothing queued, nothing stalled. */
    bool
    drained() const
    {
        return next_ >= arrivals_.size() && queue_.totalDepth() == 0 &&
               pending_.empty();
    }

  private:
    // Earliest instant a chip can accept work, counting busy time, outage
    // repair, and breaker cooldown.
    double
    chipReadyAt(size_t chip) const
    {
        return std::max(availableAt_[chip], health_.blockedUntil(chip));
    }

    // Roll the chip-down die for one dispatch attempt onto @p chip. Pure
    // in (seed, variant, ordinal), so the fault schedule is byte-identical
    // at any thread count.
    bool
    rollChipDown(size_t chip)
    {
        auto &injector = fault::FaultInjector::instance();
        return injector.armed() &&
               injector.inject(fault::kServeChipDown,
                               config_.chips[chip].variant,
                               hashCombine(dispatchOrdinal_++,
                                           static_cast<std::uint64_t>(chip)));
    }

    // An outage on @p chip at @p now: health bookkeeping, breaker trip
    // detection, trace instants, tallies.
    void
    chipDown(size_t chip, double now)
    {
        const Index tripsBefore = health_.trips();
        health_.recordFault(chip, now, now + kChipDowntimeSeconds);
        // The outage on the chip's own simulated track, with its repair
        // interval, so the offline analyzer can attribute the idle window
        // to the fault rather than to a drained queue.
        trace::simInstant(
            tracks_[chip], "chip_down", toTraceTicks(now),
            {{"downtimeTicks",
              static_cast<double>(toTraceTicks(kChipDowntimeSeconds))}});
        if (health_.trips() != tripsBefore)
            trace::simInstant(
                tracks_[chip], "breaker_open", toTraceTicks(now),
                {{"openTicks", static_cast<double>(toTraceTicks(
                                   config_.breaker.openSeconds))}});
        ++result_.chipDownEvents;
        ++resilience_.faultsSeen;
        ++resilience_.retries;
    }

    // Degradation-ladder observation at a dispatch instant; applies the
    // batcher knobs on a step change.
    void
    observeLadder(double now)
    {
        if (!config_.degradation.enabled)
            return;
        const double capacity = std::max<double>(
            1.0, static_cast<double>(health_.aliveChips(now)) *
                     static_cast<double>(config_.batch.maxBatch));
        const double pressure =
            static_cast<double>(queue_.totalDepth()) / capacity;
        if (!ladder_.observe(now, pressure))
            return;
        const Index step = ladder_.step();
        queue_.setMaxBatchOverride(
            step >= static_cast<Index>(DegradeStep::BatchShrink)
                ? std::max<Index>(1, config_.batch.maxBatch / 2)
                : 0);
        // Brownout sheds the lowest-priority tier — only meaningful when
        // the mix actually has more than one tier.
        queue_.setBrownoutMinPriority(
            step >= static_cast<Index>(DegradeStep::Brownout) &&
                    maxTier_ > minTier_
                ? maxTier_
                : std::numeric_limits<Index>::max());
        trace::simInstant(degradeTrack_, "degrade_step", toTraceTicks(now),
                          {{"step", static_cast<double>(step)}});
    }

    // The second idle chip a straggler batch is duplicated onto, or
    // numChips_ when it is not hedged. A batch is a straggler when its
    // oldest request has waited past the class's observed latency
    // percentile. A canary probe has no second idle chip.
    size_t
    hedgeChip(Index cls, double now, double oldestArrival) const
    {
        const Scalar &latency =
            result_.classes[static_cast<size_t>(cls)].latency;
        if (!config_.hedge.enabled || idle_.size() < 2 ||
            latency.count() <
                static_cast<std::size_t>(config_.hedge.minSamples))
            return numChips_;
        return now - oldestArrival >=
                       latency.percentile(config_.hedge.latencyPercentile)
                   ? idle_[1]
                   : numChips_;
    }

    // Service cost of the primary copy on idle_.front(). At the ladder's
    // algorithm-fallback step the cost model picks the cheapest of the
    // chip's own variant and the configured fallbacks (re-programming the
    // chip with a cheaper lowering); *fallback says whether one won.
    const BatchCost &
    price(Index cls, Index padded, bool *fallback)
    {
        const sim::Accelerator *own = chipAccel_[idle_.front()];
        const BatchCost *solo = &costs_.cost(*own, cls, padded, &resilience_);
        *fallback = false;
        if (ladder_.step() >=
            static_cast<Index>(DegradeStep::AlgorithmFallback)) {
            for (const sim::Accelerator *alt : fallbacks_) {
                if (alt == own)
                    continue;
                const BatchCost &cost =
                    costs_.cost(*alt, cls, padded, &resilience_);
                if (cost.seconds < solo->seconds) {
                    solo = &cost;
                    *fallback = true;
                }
            }
            if (*fallback)
                ++result_.fallbackBatches;
        }
        return *solo;
    }

    // One copy of a batch runs on @p chip from @p now for @p seconds: the
    // chip stays busy to its own completion, the breaker sees a success
    // (a canary success may close it), and the chip's track gets the span.
    void
    occupy(size_t chip, double now, double seconds, Index cls, Index n,
           Index padded, const CopyTag &tag)
    {
        availableAt_[chip] = now + seconds;
        const Index closesBefore = health_.closes();
        health_.recordSuccess(chip, now);
        if (health_.closes() != closesBefore)
            trace::simInstant(tracks_[chip], "breaker_close",
                              toTraceTicks(now));
        if (!tracks_[chip].active())
            return;
        trace::Args args = {{"batch", static_cast<double>(n)},
                            {"padded", static_cast<double>(padded)},
                            {"chip", static_cast<double>(chip)}};
        if (tag.hedge)
            args.emplace_back("hedge", 1.0);
        if (tag.fallback)
            args.emplace_back("fallback", 1.0);
        if (tag.canary)
            args.emplace_back("canary", 1.0);
        trace::simSpan(tracks_[chip],
                       mix_[static_cast<size_t>(cls)].name.c_str(),
                       toTraceTicks(now), toTraceTicks(seconds),
                       std::move(args));
    }

    // Launch @p batch on idle_.front(), plus a hedge copy on a second idle
    // chip when it is a straggler. Chaos rolls once per chip, primary
    // first: a downed chip takes no work and sits out its repair; a batch
    // no chip serves stalls for the outage-detection window and then
    // re-enters the front of its queue with arrival times (and priority)
    // intact. Every chip that serves runs to its own completion, and the
    // earlier completion delivers the batch.
    void
    launch(double now, Index cls, bool canary,
           std::vector<QueuedRequest> batch)
    {
        const auto n = static_cast<Index>(batch.size());
        const Index padded = quantizeBatch(n);
        const size_t primary = idle_.front();
        const size_t hedge = hedgeChip(cls, now, batch.front().arrivalSeconds);
        const bool hedged = hedge != numChips_;
        const bool primaryUp = !rollChipDown(primary);
        const bool hedgeUp = hedged && !rollChipDown(hedge);

        // The primary is priced only when it is up: pricing a downed chip
        // would add cost-model evaluations a real dispatcher never makes.
        const BatchCost *primaryCost = nullptr;
        bool fallback = false;
        if (primaryUp)
            primaryCost = &price(cls, padded, &fallback);
        else
            chipDown(primary, now);
        const BatchCost *hedgeCost = nullptr;
        if (hedged) {
            ++result_.hedgedBatches;
            if (hedgeUp)
                hedgeCost = &costs_.cost(*chipAccel_[hedge], cls, padded,
                                         &resilience_);
            else
                chipDown(hedge, now);
        }
        auto &bounced = bouncedChip_[static_cast<size_t>(cls)];
        if (!primaryUp && !hedgeUp) {
            bounced = static_cast<Index>(primary);
            pending_.push_back({now + config_.chipOutageDetectionSeconds, cls,
                                std::move(batch)});
            return;
        }
        // A failover: the batch is served by a chip other than the one
        // chaos last bounced its class off (the hedge, when the primary
        // just went down).
        if (!primaryUp ||
            (bounced >= 0 && bounced != static_cast<Index>(primary)))
            ++resilience_.failovers;
        bounced = -1;

        // Book every serving copy: the hedge's first, then the primary's,
        // so each track keeps its event order.
        double finish = kInf;
        Bytes dram = 0;
        if (hedgeUp) {
            occupy(hedge, now, hedgeCost->seconds, cls, n, padded,
                   CopyTag{true, false, false});
            finish = now + hedgeCost->seconds;
            dram += hedgeCost->dramBytes;
        }
        if (hedged) {
            if (hedgeUp &&
                (!primaryUp || hedgeCost->seconds < primaryCost->seconds)) {
                ++result_.hedgeWins;
                trace::simInstant(tracks_[hedge], "hedge_win",
                                  toTraceTicks(now));
            } else if (primaryUp) {
                ++result_.hedgeLosses;
                trace::simInstant(tracks_[primary], "hedge_loss",
                                  toTraceTicks(now));
            }
        }
        if (primaryUp) {
            occupy(primary, now, primaryCost->seconds, cls, n, padded,
                   CopyTag{false, fallback, canary});
            finish = std::min(finish, now + primaryCost->seconds);
            dram += primaryCost->dramBytes;
        }
        makespan_ = std::max(makespan_, finish);
        result_.classes[static_cast<size_t>(cls)].dramBytes += dram;
        completeRequests(cls, batch, now, finish,
                         primaryUp ? primaryCost->perRequestFlops
                                   : hedgeCost->perRequestFlops);
    }

    // Book one completed batch: latency/SLO accounting per request.
    void
    completeRequests(Index cls, const std::vector<QueuedRequest> &batch,
                     double now, double finish, Flops perRequestFlops)
    {
        auto &cstats = result_.classes[static_cast<size_t>(cls)];
        const double slo = queue_.sloOf(cls);
        auto &metrics = MetricsRegistry::instance();
        ++cstats.batches;
        launchedRequests_ += static_cast<Index>(batch.size());
        for (const auto &req : batch) {
            const double latency = finish - req.arrivalSeconds;
            ++cstats.completed;
            cstats.sloViolations += latency > slo ? 1 : 0;
            cstats.latencySum += latency;
            cstats.latency.sample(latency);
            latencyAll_.sample(latency);
            cstats.queueWait.sample(now - req.arrivalSeconds);
            cstats.usefulFlops += perRequestFlops;
            metrics.sample("serve.request_latency_seconds", latency);
        }
    }

    // The unified record: the board, one layer row per class, and the
    // chaos tally with the serving outcome nested in it.
    void
    buildRecord()
    {
        const ServingResult &r = result_;
        sim::ServingResilienceInfo &serving = resilience_.serving;
        serving.active = config_.breaker.enabled ||
                         config_.degradation.enabled || config_.hedge.enabled;
        serving.breakerTrips = r.breakerTrips;
        serving.breakerProbes = r.breakerProbes;
        serving.breakerCloses = r.breakerCloses;
        serving.hedgedBatches = r.hedgedBatches;
        serving.hedgeWins = r.hedgeWins;
        serving.hedgeLosses = r.hedgeLosses;
        serving.degradeStepMax = r.degradeStepMax;
        serving.degradeTransitions = r.degradeTransitions;
        serving.brownoutShed = r.brownoutShed;
        serving.fallbackBatches = r.fallbackBatches;

        sim::RunRecord &record = result_.record;
        record.accelerator = describeChips(config_.chips);
        record.model = config_.scenario;
        record.batch = config_.batch.maxBatch;
        // Board peak = per-chip peak summed (shared accelerator instances
        // still count once per chip).
        for (const sim::Accelerator *chip : chipAccel_)
            record.peakTflops += chip->peakTflops();
        record.seconds = makespan_;
        record.resilience = resilience_;
        const auto tflops = [this](Flops flops) {
            return makespan_ > 0.0
                ? static_cast<double>(flops) / makespan_ / 1e12
                : 0.0;
        };
        Flops usefulFlops = 0;
        for (size_t c = 0; c < r.classes.size(); ++c) {
            const ClassStats &cstats = r.classes[c];
            sim::LayerRecord layer;
            layer.name = cstats.name;
            layer.geometry =
                "serve(" + cstats.name + ", slo=" +
                std::to_string(queue_.sloOf(static_cast<Index>(c))) + "s)";
            layer.count = cstats.completed;
            layer.seconds = cstats.completed > 0
                ? cstats.latencySum / static_cast<double>(cstats.completed)
                : 0.0;
            layer.flops = cstats.usefulFlops;
            layer.dramBytes = cstats.dramBytes;
            layer.tflops = tflops(cstats.usefulFlops);
            auto &extras = layer.extras;
            extras["offered"] = static_cast<double>(cstats.offered);
            extras["admitted"] = static_cast<double>(cstats.admitted);
            extras["shed"] = static_cast<double>(cstats.shed);
            extras["sloViolations"] = static_cast<double>(cstats.sloViolations);
            extras["batches"] = static_cast<double>(cstats.batches);
            extras["priority"] = static_cast<double>(mix_[c].priority);
            extras["brownoutShed"] = static_cast<double>(cstats.brownoutShed);
            if (cstats.batches > 0)
                extras["meanBatch"] = static_cast<double>(cstats.completed) /
                                      static_cast<double>(cstats.batches);
            if (cstats.latency.count() > 0) {
                extras["p50Ms"] = cstats.latency.p50() * 1e3;
                extras["p95Ms"] = cstats.latency.p95() * 1e3;
                extras["p99Ms"] = cstats.latency.p99() * 1e3;
                extras["p999Ms"] = cstats.latency.p999() * 1e3;
                extras["queueWaitP99Ms"] = cstats.queueWait.p99() * 1e3;
            }
            if (makespan_ > 0.0)
                extras["goodputRps"] =
                    static_cast<double>(cstats.completed -
                                        cstats.sloViolations) /
                    makespan_;
            record.layers.push_back(std::move(layer));
            record.dramBytes += cstats.dramBytes;
            usefulFlops += cstats.usefulFlops;
        }
        record.tflops = tflops(usefulFlops);
    }

    const ServingConfig &config_;
    BatchCostModel &costs_;
    const ModelMix &mix_;
    const std::vector<const sim::Accelerator *> &chipAccel_;
    const std::vector<const sim::Accelerator *> &fallbacks_;
    const std::vector<size_t> &chipOrder_;
    const size_t numChips_;

    Index minTier_ = std::numeric_limits<Index>::max();
    Index maxTier_ = 0;
    /** Chip that chaos just bounced a class's batch off: the next
     *  launch served by a different chip counts as a failover. */
    std::vector<Index> bouncedChip_;

    std::vector<Request> arrivals_;
    size_t next_ = 0;
    BatchQueue queue_;
    HealthTracker health_;
    DegradationLadder ladder_;
    std::vector<PendingBatch> pending_;
    /** Busy-serving horizon per chip; outage windows and breaker
     *  cooldowns live in health_, so dispatch and hedging skip a
     *  downed chip the instant its outage starts. */
    std::vector<double> availableAt_;
    std::vector<trace::SimTrack> tracks_;
    trace::SimTrack degradeTrack_;
    /** Idle dispatchable chips in preference order (dispatch scratch):
     *  the primary first, then the hedge candidate. */
    std::vector<size_t> idle_;

    ServingResult result_;
    sim::ResilienceInfo resilience_;
    double makespan_ = 0.0;
    Scalar latencyAll_;
    Index launchedRequests_ = 0;
    std::uint64_t dispatchOrdinal_ = 0;
};

} // namespace

std::string
describeChips(const std::vector<ChipSpec> &chips)
{
    // Group by variant in first-appearance order: "4xtpu-v2" or
    // "2xtpu-v2+1xgpu-v100".
    std::vector<std::pair<std::string, int>> groups;
    for (const auto &chip : chips) {
        bool found = false;
        for (auto &[variant, count] : groups)
            if (variant == chip.variant) {
                ++count;
                found = true;
                break;
            }
        if (!found)
            groups.emplace_back(chip.variant, 1);
    }
    std::string out = "serve:";
    for (size_t i = 0; i < groups.size(); ++i) {
        if (i > 0)
            out += "+";
        out += std::to_string(groups[i].second) + "x" + groups[i].first;
    }
    return out;
}

Status
validateServingConfig(const ServingConfig &config)
{
    const BreakerPolicy &breaker = config.breaker;
    const DegradationPolicy &ladder = config.degradation;
    const HedgePolicy &hedge = config.hedge;
    // Each rule names the field it guards; a disabled policy's knobs go
    // unchecked.
    const std::pair<bool, const char *> rules[] = {
        {config.chips.empty(), "chips must be non-empty (chips=0)"},
        {config.sloSeconds <= 0.0, "sloSeconds must be > 0"},
        {config.chipOutageDetectionSeconds < 0.0,
         "chipOutageDetectionSeconds must be >= 0"},
        {breaker.enabled && breaker.failureThreshold < 1,
         "breaker.failureThreshold must be >= 1"},
        {breaker.enabled && breaker.openSeconds < 0.0,
         "breaker.openSeconds must be >= 0"},
        {breaker.enabled && breaker.halfOpenSuccesses < 1,
         "breaker.halfOpenSuccesses must be >= 1"},
        {ladder.enabled && (ladder.maxStep < 0 || ladder.maxStep > 3),
         "degradation.maxStep must be in [0, 3]"},
        {ladder.enabled && ladder.stepUpPressure <= ladder.stepDownPressure,
         "degradation.stepUpPressure must exceed stepDownPressure"},
        {ladder.enabled && (ladder.stepUpAfterSeconds < 0.0 ||
                            ladder.stepDownAfterSeconds < 0.0),
         "degradation windows must be >= 0"},
        {hedge.enabled && hedge.minSamples < 1,
         "hedge.minSamples must be >= 1"},
        {hedge.enabled && !(hedge.latencyPercentile > 0.0 &&
                            hedge.latencyPercentile <= 1.0),
         "hedge.latencyPercentile must be in (0, 1]"},
    };
    for (const auto &[broken, rule] : rules)
        if (broken)
            return invalidArgumentError("ServingConfig: %s", rule);
    for (size_t i = 0; i < config.chips.size(); ++i)
        if (sim::findVariant(config.chips[i].variant) == nullptr)
            return invalidArgumentError(
                "ServingConfig: chips[%zu].variant: unknown variant '%s'",
                i, config.chips[i].variant.c_str());
    for (const std::string &variant : config.fallbackVariants)
        if (sim::findVariant(variant) == nullptr)
            return invalidArgumentError(
                "ServingConfig: fallbackVariants: unknown variant '%s'",
                variant.c_str());
    return okStatus();
}

ServingSimulator::ServingSimulator(ServingConfig config, ModelMix mix)
    : config_(std::move(config)), costModel_(std::move(mix))
{
    const Status valid = validateServingConfig(config_);
    CFCONV_FATAL_IF(!valid.ok(), "ServingSimulator: %s",
                    valid.message().c_str());

    // One accelerator per distinct variant; chips share instances (and
    // thus layer memo caches) so heterogeneity costs one construction
    // per kind, not per chip.
    const auto internVariant =
        [this](const std::string &variant) -> const sim::Accelerator * {
        for (const auto &accelerator : accelerators_)
            if (accelerator->name() == variant)
                return accelerator.get();
        accelerators_.push_back(sim::makeAccelerator(variant));
        return accelerators_.back().get();
    };
    for (const auto &chip : config_.chips)
        chipAccel_.push_back(internVariant(chip.variant));
    for (const auto &variant : config_.fallbackVariants)
        fallbackAccel_.push_back(internVariant(variant));

    // Dispatch preference: fastest chips first (work-stealing pulls go
    // to the chip that drains the queue soonest), index breaks ties so
    // the order — and therefore every record — is deterministic.
    chipOrder_.resize(config_.chips.size());
    for (size_t i = 0; i < chipOrder_.size(); ++i)
        chipOrder_[i] = i;
    std::stable_sort(chipOrder_.begin(), chipOrder_.end(),
                     [this](size_t a, size_t b) {
                         return chipAccel_[a]->peakTflops() >
                                chipAccel_[b]->peakTflops();
                     });
}

void
ServingSimulator::setPolicy(const BatchPolicy &batch,
                            const AdmissionPolicy &admission)
{
    config_.batch = batch;
    config_.admission = admission;
}

void
ServingSimulator::setScenario(const std::string &scenario)
{
    config_.scenario = scenario;
}

ServingResult
ServingSimulator::run(const TrafficSpec &traffic)
{
    // The event loop: strictly serial over simulated time.
    ServingRun run(config_, costModel_, chipAccel_, fallbackAccel_,
                   chipOrder_, traffic);
    double now = 0.0;
    while (!run.drained()) {
        run.requeueStalled(now);
        run.dispatch(now);
        if (run.drained())
            break; // dispatch launched the last batch
        now = run.nextEvent(now);
        run.admitArrivals(now);
    }
    return run.finish();
}

} // namespace cfconv::serve
