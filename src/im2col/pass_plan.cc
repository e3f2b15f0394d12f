#include "im2col/pass_plan.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cfconv::im2col {

std::vector<PlanPass>
PassPlan::passes(Index max_depth, Index merge) const
{
    CFCONV_ASSERT(max_depth >= 1 && merge >= 1 &&
                      (merge == 1 ||
                       (mergeable && merge * tapDepth <= max_depth)),
                  "PassPlan::passes: bad depth %lld or merge %lld",
                  static_cast<long long>(max_depth),
                  static_cast<long long>(merge));
    const Index n = static_cast<Index>(taps.size());
    std::vector<PlanPass> out;
    if (tapDepth <= max_depth) {
        for (Index t = 0; t < n; t += merge)
            out.push_back({t, std::min(merge, n - t), 0, tapDepth});
        return out;
    }
    for (Index t = 0; t < n; ++t)
        for (Index d = 0; d < tapDepth; d += max_depth)
            out.push_back({t, 1, d, std::min(max_depth, tapDepth - d)});
    return out;
}

PassPlan
channelFirstPlan(const ConvParams &params, std::vector<FilterTile> taps)
{
    PassPlan plan;
    plan.taps = std::move(taps);
    plan.tapDepth = params.inChannels;
    plan.mergeable = true;
    plan.feed = FeedLocality::TileGather;
    return plan;
}

Index
tpuMultiTileParam(Index array_rows, const ConvParams &params)
{
    CFCONV_FATAL_IF(array_rows < 1, "tpuMultiTileParam: bad array size");
    const Index by_channels =
        std::max<Index>(1, array_rows / params.inChannels);
    return std::max<Index>(1, std::min(by_channels, params.kernelW));
}

double
groupedRowOccupancy(const ConvParams &params, Index groups,
                    Index array_rows)
{
    params.validate(groups);
    const ConvParams slice = tensor::groupSlice(params, groups);
    const Index t = tpuMultiTileParam(array_rows, slice);
    return std::min(1.0, static_cast<double>(t * slice.inChannels) /
                             static_cast<double>(array_rows));
}

} // namespace cfconv::im2col
