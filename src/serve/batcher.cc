#include "serve/batcher.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cfconv::serve {

namespace {

/** Slack for comparing accumulated simulated timestamps against the
 *  max-wait deadline; one picosecond is far below any service time
 *  yet absorbs double rounding in t = a + b chains. */
constexpr double kTimeEps = 1e-12;

} // namespace

BatchQueue::BatchQueue(Index num_classes, const BatchPolicy &batch,
                       const AdmissionPolicy &admission,
                       std::vector<Index> priorities,
                       std::vector<double> slo_seconds)
    : batch_(batch), admission_(admission),
      queues_(static_cast<size_t>(num_classes)),
      shed_(static_cast<size_t>(num_classes), 0),
      brownoutShed_(static_cast<size_t>(num_classes), 0),
      priorities_(std::move(priorities)),
      sloSeconds_(std::move(slo_seconds)),
      brownoutMinPriority_(std::numeric_limits<Index>::max())
{
    CFCONV_FATAL_IF(num_classes < 1,
                    "BatchQueue: need at least one class");
    CFCONV_FATAL_IF(batch_.maxBatch < 1,
                    "BatchQueue: maxBatch must be >= 1");
    CFCONV_FATAL_IF(batch_.maxWaitSeconds < 0.0,
                    "BatchQueue: maxWaitSeconds must be >= 0");
    if (priorities_.empty())
        priorities_.assign(static_cast<size_t>(num_classes), 0);
    if (sloSeconds_.empty())
        sloSeconds_.assign(static_cast<size_t>(num_classes), 0.0);
    CFCONV_FATAL_IF(priorities_.size() != queues_.size() ||
                        sloSeconds_.size() != queues_.size(),
                    "BatchQueue: priorities/sloSeconds size mismatch");
}

bool
BatchQueue::offer(const Request &request)
{
    const auto idx = static_cast<size_t>(request.classIdx);
    CFCONV_FATAL_IF(idx >= queues_.size(),
                    "BatchQueue: class index out of range");
    if (priorities_[idx] >= brownoutMinPriority_) {
        ++shed_[idx];
        ++brownoutShed_[idx];
        return false;
    }
    const bool full =
        admission_.maxQueuePerClass > 0 &&
        static_cast<Index>(queues_[idx].size()) >=
            admission_.maxQueuePerClass;
    if (full) {
        ++shed_[idx];
        return false;
    }
    queues_[idx].push_back({request.id, request.arrivalSeconds});
    return true;
}

Index
BatchQueue::launchableClass(double now) const
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const Index max_batch = effectiveMaxBatch();
    Index best = -1;
    Index best_priority = std::numeric_limits<Index>::max();
    double best_deadline = inf;
    double best_arrival = inf;
    for (size_t i = 0; i < queues_.size(); ++i) {
        const auto &q = queues_[i];
        if (q.empty())
            continue;
        const bool full = static_cast<Index>(q.size()) >= max_batch;
        const bool timed_out = now - q.front().arrivalSeconds >=
                               batch_.maxWaitSeconds - kTimeEps;
        if (!full && !timed_out)
            continue;
        // Earliest deadline within the lowest (most important)
        // priority tier; arrival and class index break remaining
        // ties. With one tier and one SLO this reduces exactly to
        // earliest-arrival FIFO.
        const Index priority = priorities_[i];
        const double arrival = q.front().arrivalSeconds;
        const double deadline = arrival + sloSeconds_[i];
        if (priority < best_priority ||
            (priority == best_priority &&
             (deadline < best_deadline ||
              (deadline == best_deadline && arrival < best_arrival)))) {
            best_priority = priority;
            best_deadline = deadline;
            best_arrival = arrival;
            best = static_cast<Index>(i);
        }
    }
    return best;
}

double
BatchQueue::nextDeadline() const
{
    double deadline = std::numeric_limits<double>::infinity();
    for (const auto &q : queues_) {
        if (q.empty())
            continue;
        deadline = std::min(
            deadline, q.front().arrivalSeconds + batch_.maxWaitSeconds);
    }
    return deadline;
}

std::vector<QueuedRequest>
BatchQueue::pop(Index class_idx, Index max_n)
{
    auto &q = queues_[static_cast<size_t>(class_idx)];
    std::vector<QueuedRequest> batch;
    const Index n =
        std::min<Index>(max_n, static_cast<Index>(q.size()));
    batch.reserve(static_cast<size_t>(n));
    for (Index i = 0; i < n; ++i) {
        batch.push_back(q.front());
        q.pop_front();
    }
    return batch;
}

void
BatchQueue::requeueFront(Index class_idx,
                         const std::vector<QueuedRequest> &batch)
{
    auto &q = queues_[static_cast<size_t>(class_idx)];
    for (auto it = batch.rbegin(); it != batch.rend(); ++it)
        q.push_front(*it);
}

Index
BatchQueue::depth(Index class_idx) const
{
    return static_cast<Index>(
        queues_[static_cast<size_t>(class_idx)].size());
}

Index
BatchQueue::totalDepth() const
{
    Index total = 0;
    for (const auto &q : queues_)
        total += static_cast<Index>(q.size());
    return total;
}

Index
BatchQueue::shedCount(Index class_idx) const
{
    return shed_[static_cast<size_t>(class_idx)];
}

Index
BatchQueue::brownoutShedCount(Index class_idx) const
{
    return brownoutShed_[static_cast<size_t>(class_idx)];
}

void
BatchQueue::setMaxBatchOverride(Index max_batch)
{
    CFCONV_FATAL_IF(max_batch < 0,
                    "BatchQueue: maxBatch override must be >= 0");
    maxBatchOverride_ = max_batch;
}

Index
BatchQueue::effectiveMaxBatch() const
{
    return maxBatchOverride_ > 0
        ? std::min(maxBatchOverride_, batch_.maxBatch)
        : batch_.maxBatch;
}

void
BatchQueue::setBrownoutMinPriority(Index min_priority)
{
    brownoutMinPriority_ = min_priority;
}

double
BatchQueue::sloOf(Index class_idx) const
{
    return sloSeconds_[static_cast<size_t>(class_idx)];
}

} // namespace cfconv::serve
