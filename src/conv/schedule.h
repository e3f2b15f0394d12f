/**
 * @file
 * The one overlap rule both simulators time a layer with: operand
 * fills double-buffered under array or tensor-core compute (Sec. IV-B,
 * Sec. V). It sums where the time went as phases arrive (Fig 2's time
 * breakdown) and, while the recorder is armed, draws the one
 * "<label> fill" / "<label> compute" row pair (overlapped phases would
 * collide on one row) for its first kMaxTracedSteps steps.
 */

#ifndef CFCONV_CONV_SCHEDULE_H
#define CFCONV_CONV_SCHEDULE_H

#include <string>

#include "common/trace.h"
#include "common/types.h"

namespace cfconv::conv {

/** Where a run's time went, in the unit it was fed in (TpuSim cycles,
 *  GpuSim seconds): compute + exposedFill + overhead + stall is the
 *  run's time, which its result keeps (`cycles`, `seconds`). */
struct TimeBreakdown
{
    double compute = 0.0;     ///< engines busy
    double fill = 0.0;        ///< the schedule's fills, hidden or not
    double exposedFill = 0.0; ///< waiting on data nothing overlaps
    double overhead = 0.0;    ///< fixed invoke or launch cost
    double stall = 0.0;       ///< lift to a bandwidth roofline
    Index steps = 0;          ///< compute steps of one run

    /** Every part times @p times over @p per (the run repeated, or in
     *  another unit); steps stay one run's. */
    TimeBreakdown scaled(double times, double per = 1.0) const;
    /** Fills outlast compute, or a roofline lifted the total. */
    bool memoryBound() const { return fill > compute || stall > 0.0; }
};

/** The timeline label of an M x K x N GEMM on either simulator. */
std::string gemmLabel(Index m, Index k, Index n);

/** The double-buffered fill/compute schedule of one run: a step pairs
 *  a compute phase with the fill it hides and lasts the longer one. */
class OverlapSchedule
{
  public:
    static constexpr Index kMaxTracedSteps = 512;

    /** @p label() names the timeline; it runs only while the recorder
     *  is armed. @p overhead is a fixed cost before the first phase,
     *  which shifts the timeline and draws nothing. */
    template <typename LabelFn>
    explicit OverlapSchedule(LabelFn &&label, double overhead = 0.0)
        : total_(overhead)
    {
        time_.overhead = overhead;
        if (trace::enabled()) {
            const std::string name = label();
            fillRow_ = trace::simTrack(name + " fill");
            computeRow_ = trace::simTrack(name + " compute");
        }
    }

    /** A fill no compute hides (the first unit's). */
    void exposedFill(double t);
    /** @p compute overlapped with the @p fill it hides. */
    void step(double compute, double fill);

    /** The run's time: the sum of the breakdown's parts. */
    double total() const { return total_; }
    const TimeBreakdown &breakdown() const { return time_; }

  private:
    void draw(const trace::SimTrack &row, const char *name,
              double dur) const;

    TimeBreakdown time_;
    double total_ = 0.0;
    trace::SimTrack fillRow_;
    trace::SimTrack computeRow_;
};

} // namespace cfconv::conv

#endif // CFCONV_CONV_SCHEDULE_H
