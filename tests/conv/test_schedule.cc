/** @file Tests for conv::OverlapSchedule, the one overlap rule both
 *  simulators time a layer with: the total is the overhead, the first
 *  fill and every step's longer phase; the parts sum to it; and an
 *  armed recorder gets one fill/compute timeline, capped in steps,
 *  while a disarmed one gets nothing and the label is never built. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analyze/trace_model.h"
#include "common/trace.h"
#include "conv/schedule.h"

namespace cfconv::conv {
namespace {

/** The overhead, the first fill, then (compute, next fill) steps, as
 *  TpuSim feeds a layer's units. */
struct Phases
{
    double overhead = 7.0;
    double firstFill = 5.0;
    std::vector<std::pair<double, double>> steps = {
        {10.0, 4.0}, {3.0, 8.0}, {6.0, 0.0}};
};

/** A schedule named by @p label and fed @p phases. */
template <typename LabelFn>
OverlapSchedule
feed(LabelFn &&label, const Phases &phases)
{
    OverlapSchedule schedule(label, phases.overhead);
    schedule.exposedFill(phases.firstFill);
    for (const auto &[compute, fill] : phases.steps)
        schedule.step(compute, fill);
    return schedule;
}

class OverlapScheduleTest : public ::testing::Test
{
  protected:
    void TearDown() override { trace::resetForTest(); }
};

TEST_F(OverlapScheduleTest, TotalIsOverheadFirstFillAndEachStepsLongerPhase)
{
    const Phases phases;
    const OverlapSchedule schedule =
        feed([] { return std::string("hand-fed"); }, phases);
    const TimeBreakdown &b = schedule.breakdown();

    // overhead + fill0 + sum(max(compute_i, fill_{i+1})).
    double expect = phases.overhead + phases.firstFill;
    double compute = 0.0, fill = phases.firstFill;
    for (const auto &[c, f] : phases.steps) {
        expect += std::max(c, f);
        compute += c;
        fill += f;
    }
    EXPECT_EQ(schedule.total(), expect);
    EXPECT_EQ(schedule.total(), 36.0);
    EXPECT_EQ(b.compute, compute);
    EXPECT_EQ(b.fill, fill);
    EXPECT_EQ(b.overhead, phases.overhead);
    // The first fill and the one fill that outlasts its compute.
    EXPECT_EQ(b.exposedFill, phases.firstFill + (8.0 - 3.0));
    EXPECT_EQ(b.stall, 0.0);
    EXPECT_EQ(b.steps, 3);
    EXPECT_EQ(b.compute + b.exposedFill + b.overhead + b.stall,
              schedule.total());
    EXPECT_FALSE(b.memoryBound());
}

TEST_F(OverlapScheduleTest, ScalingKeepsTheSumAndTheSteps)
{
    // A grouped layer's repetitions, or one thread block's cycles in a
    // kernel's seconds: every part scales, the step count is one run's.
    const OverlapSchedule schedule =
        feed([] { return std::string("hand-fed"); }, Phases{});
    const TimeBreakdown b = schedule.breakdown().scaled(3.0, 2.0);
    EXPECT_EQ(b.compute, 28.5);
    EXPECT_EQ(b.fill, 1.5 * 17.0);
    EXPECT_EQ(b.compute + b.exposedFill + b.overhead + b.stall,
              1.5 * schedule.total());
    EXPECT_EQ(b.steps, 3);

    // Fills that outlast compute, or a roofline lift, bound a run by
    // memory.
    TimeBreakdown lifted = b;
    EXPECT_FALSE(lifted.memoryBound());
    lifted.stall = 1.0;
    EXPECT_TRUE(lifted.memoryBound());
    OverlapSchedule starved([] { return std::string("hand-fed"); });
    starved.step(2.0, 3.0);
    EXPECT_TRUE(starved.breakdown().memoryBound());
}

TEST_F(OverlapScheduleTest, DrawsNothingAndBuildsNoLabelWhileDisarmed)
{
    ASSERT_FALSE(trace::enabled());
    bool labelled = false;
    const OverlapSchedule schedule = feed(
        [&labelled] {
            labelled = true;
            return std::string("unused");
        },
        Phases{});
    EXPECT_FALSE(labelled);
    EXPECT_EQ(trace::bufferedEventCountForTest(), 0u);
    EXPECT_EQ(schedule.total(), 36.0);
}

TEST_F(OverlapScheduleTest, DrawsOneFillComputeTimelineCappedInSteps)
{
    const std::string path =
        ::testing::TempDir() + "cfconv_overlap_schedule.json";
    trace::start(path);
    Phases phases;
    phases.steps.clear();
    for (int i = 0; i < OverlapSchedule::kMaxTracedSteps + 88; ++i)
        phases.steps.push_back({4.0, i % 2 == 0 ? 6.0 : 2.0});
    const OverlapSchedule schedule =
        feed([] { return std::string("conv 3x3 8->8"); }, phases);
    ASSERT_TRUE(trace::stop());

    const auto doc = analyze::parseTraceFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    std::vector<std::string> rows;
    for (const auto &[pid_tid, label] : doc->trackNames)
        if (pid_tid.first == analyze::kSimPid)
            rows.push_back(label);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], "conv 3x3 8->8 fill");
    EXPECT_EQ(rows[1], "conv 3x3 8->8 compute");

    // The overhead shifts the timeline and draws nothing. The first
    // fill, then each step's compute and the fill it hides, start
    // together; a step lasts its longer phase.
    std::vector<std::pair<double, double>> fills, computes;
    for (const analyze::TraceEvent *e :
         doc->eventsOnClock(analyze::kSimPid)) {
        const std::string &row = doc->simTrackName(e->tid);
        (row == rows[0] ? fills : computes).push_back({e->ts, e->dur});
    }
    const auto cap = static_cast<size_t>(OverlapSchedule::kMaxTracedSteps);
    ASSERT_EQ(computes.size(), cap);
    ASSERT_EQ(fills.size(), cap + 1);
    EXPECT_EQ(fills[0], std::make_pair(7.0, 5.0));
    double t = 12.0;
    for (size_t i = 0; i < cap; ++i) {
        EXPECT_EQ(computes[i], std::make_pair(t, 4.0)) << i;
        EXPECT_EQ(fills[i + 1], std::make_pair(t, i % 2 == 0 ? 6.0 : 2.0))
            << i;
        t += i % 2 == 0 ? 6.0 : 4.0;
    }
    // The steps past the cap are timed all the same.
    EXPECT_EQ(schedule.breakdown().steps,
              static_cast<Index>(phases.steps.size()));
    EXPECT_EQ(schedule.total(), 12.0 + 300.0 * 10.0);
}

} // namespace
} // namespace cfconv::conv
