#include "conv/schedule.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

namespace cfconv::conv {

std::string
gemmLabel(Index m, Index k, Index n)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "gemm %lldx%lldx%lld",
                  static_cast<long long>(m), static_cast<long long>(k),
                  static_cast<long long>(n));
    return buf;
}

TimeBreakdown
TimeBreakdown::scaled(double times, double per) const
{
    TimeBreakdown s = *this;
    for (double *part :
         {&s.compute, &s.fill, &s.exposedFill, &s.overhead, &s.stall})
        *part = times * *part / per;
    return s;
}

void
OverlapSchedule::draw(const trace::SimTrack &row, const char *name,
                      double dur) const
{
    if (row.active() && time_.steps < kMaxTracedSteps)
        trace::simSpan(row, name, static_cast<std::uint64_t>(total_ + 0.5),
                       static_cast<std::uint64_t>(dur + 0.5));
}

void
OverlapSchedule::exposedFill(double t)
{
    draw(fillRow_, "fill", t);
    time_.fill += t;
    time_.exposedFill += t;
    total_ += t;
}

void
OverlapSchedule::step(double compute, double fill)
{
    draw(computeRow_, "compute", compute);
    draw(fillRow_, "fill", fill);
    const double busy = std::max(compute, fill);
    time_.compute += compute;
    time_.fill += fill;
    time_.exposedFill += busy - compute;
    total_ += busy;
    ++time_.steps;
}

} // namespace cfconv::conv
