/**
 * @file
 * Dynamic batcher + admission control for the serving simulator. The
 * batcher trades queueing delay against batch efficiency the same way
 * batching amortizes im2col overhead in the GEMM-lowered algorithms:
 * a batch launches when it is full (maxBatch) or when its oldest
 * request has waited maxWait — the two knobs of the classic
 * max-size / max-wait policy the Pareto sweep explores. Admission
 * control sheds requests at arrival when a class queue is full: under
 * overload, shedding early is what keeps the served requests inside
 * the SLO (goodput) instead of letting every request time out
 * (throughput without goodput).
 *
 * Purely mechanical and single-threaded: all state transitions happen
 * at simulated timestamps handed in by the event loop, so the whole
 * structure is deterministic by construction.
 */

#ifndef CFCONV_SERVE_BATCHER_H
#define CFCONV_SERVE_BATCHER_H

#include <deque>
#include <vector>

#include "common/types.h"
#include "serve/workload.h"

namespace cfconv::serve {

/** The max-size / max-wait batching policy (batch 1..64). */
struct BatchPolicy
{
    /** Largest batch formed; 1 = no batching. */
    Index maxBatch = 8;
    /** Longest a request may wait for its batch to fill before the
     *  partial batch launches anyway; 0 = launch immediately. */
    double maxWaitSeconds = 2e-3;
};

/** Load-shedding policy applied at arrival. */
struct AdmissionPolicy
{
    /** Shed when the class queue already holds this many requests;
     *  0 = admit everything (pure FIFO, unbounded queues). */
    Index maxQueuePerClass = 0;
};

/** One queued request (arrival kept for latency accounting). */
struct QueuedRequest
{
    Index id = 0;
    double arrivalSeconds = 0.0;
};

/**
 * Per-class FIFO queues + the launch/shed decision logic. The event
 * loop asks three questions: may this arrival enter (offer), which
 * class may launch a batch now (launchableClass), and when does the
 * next max-wait deadline expire (nextDeadline) so it can schedule a
 * wake-up even while every chip is busy or idle-waiting.
 */
class BatchQueue
{
  public:
    /**
     * @p priorities / @p slo_seconds are per-class resilience knobs
     * (empty = all zero, the legacy behavior): priority orders launch
     * selection (lower tier first) and marks brownout victims;
     * slo_seconds sets each class's deadline for the
     * earliest-deadline-first tie-break within a tier. With all
     * priorities and SLOs equal the launch order is bit-identical to
     * the original earliest-arrival FIFO.
     */
    BatchQueue(Index num_classes, const BatchPolicy &batch,
               const AdmissionPolicy &admission,
               std::vector<Index> priorities = {},
               std::vector<double> slo_seconds = {});

    /** Admit or shed @p request; @return false when shed. */
    bool offer(const Request &request);

    /**
     * The class allowed to launch at @p now — non-empty and either
     * full (>= effective maxBatch) or timed out (oldest waited >=
     * maxWait) — or -1. Selection order: lowest priority tier, then
     * earliest deadline (oldest arrival + class SLO), then earliest
     * oldest-arrival, then lowest class index — deterministic, and
     * identical to the original cross-class FIFO when every class
     * shares one tier and one SLO.
     */
    Index launchableClass(double now) const;

    /** Earliest future instant some non-empty class times out; +inf
     *  when every queue is empty. */
    double nextDeadline() const;

    /** Pop up to @p max_n oldest requests of @p class_idx. */
    std::vector<QueuedRequest> pop(Index class_idx, Index max_n);

    /** Put a popped batch back at the front, oldest first (chip-down
     *  retry: the requests keep their arrival times and priority). */
    void requeueFront(Index class_idx,
                      const std::vector<QueuedRequest> &batch);

    Index depth(Index class_idx) const;
    Index totalDepth() const;
    Index shedCount(Index class_idx) const;
    /** Of shedCount: requests shed by the brownout floor. */
    Index brownoutShedCount(Index class_idx) const;

    const BatchPolicy &policy() const { return batch_; }

    /**
     * Degradation hook: cap batches at @p max_batch (0 = back to the
     * policy's maxBatch). Affects the full-batch launch test and the
     * size dispatch should pop.
     */
    void setMaxBatchOverride(Index max_batch);

    /** Policy maxBatch with any degradation override applied. */
    Index effectiveMaxBatch() const;

    /**
     * Degradation hook: shed arrivals of classes with priority >=
     * @p min_priority at offer() (low-priority brownout). Pass a
     * value above every tier (the default) to disable.
     */
    void setBrownoutMinPriority(Index min_priority);

    double sloOf(Index class_idx) const;

  private:
    BatchPolicy batch_;
    AdmissionPolicy admission_;
    std::vector<std::deque<QueuedRequest>> queues_;
    std::vector<Index> shed_;
    std::vector<Index> brownoutShed_;
    std::vector<Index> priorities_;
    std::vector<double> sloSeconds_;
    Index maxBatchOverride_ = 0;
    Index brownoutMinPriority_;
};

} // namespace cfconv::serve

#endif // CFCONV_SERVE_BATCHER_H
