/** @file Tests for the dynamic batcher + admission control
 *  (serve/batcher) and the batch quantizer (serve/cost_model). */

#include <gtest/gtest.h>

#include <limits>

#include "serve/batcher.h"
#include "serve/cost_model.h"

namespace cfconv::serve {
namespace {

Request
at(Index id, double t, Index cls = 0)
{
    return Request{id, t, cls};
}

TEST(QuantizeBatch, RoundsUpToPreferredSizes)
{
    EXPECT_EQ(quantizeBatch(1), 1);
    EXPECT_EQ(quantizeBatch(2), 2);
    EXPECT_EQ(quantizeBatch(3), 4);
    EXPECT_EQ(quantizeBatch(5), 8);
    EXPECT_EQ(quantizeBatch(9), 12);
    EXPECT_EQ(quantizeBatch(13), 16);
    EXPECT_EQ(quantizeBatch(17), 24);
    EXPECT_EQ(quantizeBatch(33), 48);
    EXPECT_EQ(quantizeBatch(49), 64);
    EXPECT_EQ(quantizeBatch(64), 64);
    EXPECT_EQ(quantizeBatch(1000), kMaxServeBatch);
}

TEST(BatchQueue, LaunchesWhenFull)
{
    BatchQueue queue(1, BatchPolicy{4, 1.0}, {});
    for (Index i = 0; i < 3; ++i) {
        EXPECT_TRUE(queue.offer(at(i, 0.0)));
        EXPECT_EQ(queue.launchableClass(0.0), -1) << i;
    }
    EXPECT_TRUE(queue.offer(at(3, 0.0)));
    EXPECT_EQ(queue.launchableClass(0.0), 0);
    const auto batch = queue.pop(0, 4);
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch.front().id, 0); // FIFO
    EXPECT_EQ(queue.depth(0), 0);
}

TEST(BatchQueue, LaunchesPartialBatchAtMaxWait)
{
    BatchQueue queue(1, BatchPolicy{8, 2e-3}, {});
    EXPECT_TRUE(queue.offer(at(0, 1.0)));
    EXPECT_EQ(queue.launchableClass(1.0), -1);
    EXPECT_EQ(queue.launchableClass(1.0 + 1e-3), -1);
    EXPECT_DOUBLE_EQ(queue.nextDeadline(), 1.0 + 2e-3);
    EXPECT_EQ(queue.launchableClass(1.0 + 2e-3), 0);
}

TEST(BatchQueue, ZeroWaitMeansImmediateLaunch)
{
    BatchQueue queue(1, BatchPolicy{8, 0.0}, {});
    EXPECT_TRUE(queue.offer(at(0, 0.5)));
    EXPECT_EQ(queue.launchableClass(0.5), 0);
}

TEST(BatchQueue, TiesBreakByOldestArrivalThenClassIndex)
{
    BatchQueue queue(3, BatchPolicy{1, 10.0}, {});
    // maxBatch=1: every queued request is launchable immediately.
    EXPECT_TRUE(queue.offer(at(0, 2.0, 2)));
    EXPECT_TRUE(queue.offer(at(1, 1.0, 1)));
    EXPECT_EQ(queue.launchableClass(2.0), 1); // older arrival wins
    EXPECT_TRUE(queue.offer(at(2, 1.0, 0)));
    EXPECT_EQ(queue.launchableClass(2.0), 0); // equal age: low index
}

TEST(BatchQueue, ShedsOnFullQueue)
{
    AdmissionPolicy admission;
    admission.maxQueuePerClass = 2;
    BatchQueue queue(1, BatchPolicy{8, 1.0}, admission);
    EXPECT_TRUE(queue.offer(at(0, 0.0)));
    EXPECT_TRUE(queue.offer(at(1, 0.0)));
    EXPECT_FALSE(queue.offer(at(2, 0.0)));
    EXPECT_EQ(queue.shedCount(0), 1);
    EXPECT_EQ(queue.depth(0), 2);
}

TEST(BatchQueue, UnboundedPolicyAdmitsEverything)
{
    BatchQueue queue(1, BatchPolicy{2, 1.0}, {});
    for (Index i = 0; i < 100; ++i)
        EXPECT_TRUE(queue.offer(at(i, 0.0)));
    EXPECT_EQ(queue.depth(0), 100);
    EXPECT_EQ(queue.shedCount(0), 0);
}

TEST(BatchQueue, RequeueFrontPreservesFifoOrder)
{
    BatchQueue queue(1, BatchPolicy{2, 1.0}, {});
    for (Index i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.offer(at(i, static_cast<double>(i))));
    auto batch = queue.pop(0, 2);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0);
    queue.requeueFront(0, batch);
    EXPECT_EQ(queue.depth(0), 4);
    const auto again = queue.pop(0, 4);
    ASSERT_EQ(again.size(), 4u);
    for (Index i = 0; i < 4; ++i)
        EXPECT_EQ(again[static_cast<size_t>(i)].id, i);
}

TEST(BatchQueue, NextDeadlineIsInfiniteWhenEmpty)
{
    BatchQueue queue(2, BatchPolicy{4, 1e-3}, {});
    EXPECT_TRUE(queue.nextDeadline() >
                1e30); // +inf: no queued request
    EXPECT_EQ(queue.launchableClass(100.0), -1);
}

TEST(BatchQueue, PriorityTierBeatsOlderArrival)
{
    // maxBatch=1: everything queued is launchable. Class 1 sits in
    // the more important tier 0, so it launches ahead of the older
    // tier-1 arrival.
    BatchQueue queue(2, BatchPolicy{1, 10.0}, {}, {1, 0}, {});
    EXPECT_TRUE(queue.offer(at(0, 1.0, 0)));
    EXPECT_TRUE(queue.offer(at(1, 2.0, 1)));
    EXPECT_EQ(queue.launchableClass(2.0), 1);
    queue.pop(1, 1);
    EXPECT_EQ(queue.launchableClass(2.0), 0);
}

TEST(BatchQueue, EarliestDeadlineBreaksTiesWithinATier)
{
    // Same tier, different SLOs: the newer class-1 arrival has the
    // earlier deadline (1.05 + 0.01 < 1.00 + 0.10) and goes first.
    BatchQueue queue(2, BatchPolicy{1, 10.0}, {}, {0, 0},
                     {0.10, 0.01});
    EXPECT_TRUE(queue.offer(at(0, 1.00, 0)));
    EXPECT_TRUE(queue.offer(at(1, 1.05, 1)));
    EXPECT_EQ(queue.launchableClass(1.05), 1);
}

TEST(BatchQueue, BrownoutShedsOnlyTheFlooredTiersAtArrival)
{
    BatchQueue queue(2, BatchPolicy{4, 1.0}, {}, {0, 2}, {});
    queue.setBrownoutMinPriority(2);
    EXPECT_TRUE(queue.offer(at(0, 0.0, 0)));
    EXPECT_FALSE(queue.offer(at(1, 0.0, 1)));
    EXPECT_EQ(queue.shedCount(1), 1);
    EXPECT_EQ(queue.brownoutShedCount(1), 1);
    EXPECT_EQ(queue.brownoutShedCount(0), 0);
    // Lifting the floor re-admits the class.
    queue.setBrownoutMinPriority(std::numeric_limits<Index>::max());
    EXPECT_TRUE(queue.offer(at(2, 0.1, 1)));
}

TEST(BatchQueue, MaxBatchOverrideShrinksTheFullTestAndClamps)
{
    BatchQueue queue(1, BatchPolicy{8, 10.0}, {});
    for (Index i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.offer(at(i, 0.0)));
    EXPECT_EQ(queue.launchableClass(0.0), -1); // 4 < 8: not full
    queue.setMaxBatchOverride(4);
    EXPECT_EQ(queue.effectiveMaxBatch(), 4);
    EXPECT_EQ(queue.launchableClass(0.0), 0); // full at the override
    // The override can only shrink, never grow past the policy.
    queue.setMaxBatchOverride(64);
    EXPECT_EQ(queue.effectiveMaxBatch(), 8);
    queue.setMaxBatchOverride(0);
    EXPECT_EQ(queue.effectiveMaxBatch(), 8);
}

} // namespace
} // namespace cfconv::serve
