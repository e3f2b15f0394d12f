#include "im2col/grouped.h"

#include <algorithm>

#include "im2col/implicit_conv.h"
#include "tensor/conv_ref.h"

namespace cfconv::im2col {

ConvParams
GroupedConvParams::groupParams() const
{
    ConvParams p = base;
    p.inChannels = base.inChannels / groups;
    p.outChannels = base.outChannels / groups;
    return p;
}

void
GroupedConvParams::validate() const
{
    base.validate(groups);
}

Flops
GroupedConvParams::flops() const
{
    return base.flops() / static_cast<Flops>(groups);
}

namespace {

/** Copy channel slice [c0, c0+len) of @p src into a fresh tensor. */
tensor::Tensor
sliceChannels(const tensor::Tensor &src, Index c0, Index len)
{
    tensor::Tensor out(src.n(), len, src.h(), src.w());
    for (Index n = 0; n < src.n(); ++n)
        for (Index c = 0; c < len; ++c)
            for (Index h = 0; h < src.h(); ++h)
                for (Index w = 0; w < src.w(); ++w)
                    out.at(n, c, h, w) = src.at(n, c0 + c, h, w);
    return out;
}

/** Copy filter slice for output channels [co0, co0+len). */
tensor::Tensor
sliceFilters(const tensor::Tensor &filter, Index co0, Index len)
{
    tensor::Tensor out(len, filter.c(), filter.h(), filter.w());
    for (Index co = 0; co < len; ++co)
        for (Index ci = 0; ci < filter.c(); ++ci)
            for (Index h = 0; h < filter.h(); ++h)
                for (Index w = 0; w < filter.w(); ++w)
                    out.at(co, ci, h, w) = filter.at(co0 + co, ci, h, w);
    return out;
}

void
checkFilter(const GroupedConvParams &params,
            const tensor::Tensor &filter)
{
    const ConvParams &base = params.base;
    tensor::checkOperandDims(base, "filter",
                             {{"C_O", filter.n(), base.outChannels},
                              {"C_I/G", filter.c(),
                               base.inChannels / params.groups},
                              {"H_F", filter.h(), base.kernelH},
                              {"W_F", filter.w(), base.kernelW}});
}

template <typename GroupConv>
tensor::Tensor
runGroups(const GroupedConvParams &params, const tensor::Tensor &input,
          const tensor::Tensor &filter, GroupConv &&group_conv)
{
    params.validate();
    tensor::checkInput(params.base, input);
    checkFilter(params, filter);
    const ConvParams g = params.groupParams();

    tensor::Tensor out(params.base.batch, params.base.outChannels,
                       params.base.outH(), params.base.outW());
    for (Index grp = 0; grp < params.groups; ++grp) {
        const tensor::Tensor in_slice =
            sliceChannels(input, grp * g.inChannels, g.inChannels);
        const tensor::Tensor f_slice =
            sliceFilters(filter, grp * g.outChannels, g.outChannels);
        const tensor::Tensor sub = group_conv(g, in_slice, f_slice);
        for (Index n = 0; n < sub.n(); ++n)
            for (Index c = 0; c < sub.c(); ++c)
                for (Index h = 0; h < sub.h(); ++h)
                    for (Index w = 0; w < sub.w(); ++w)
                        out.at(n, grp * g.outChannels + c, h, w) =
                            sub.at(n, c, h, w);
    }
    return out;
}

} // namespace

tensor::Tensor
convGroupedDirect(const GroupedConvParams &params,
                  const tensor::Tensor &input,
                  const tensor::Tensor &filter)
{
    return runGroups(params, input, filter,
                     [](const ConvParams &g, const tensor::Tensor &in,
                        const tensor::Tensor &f) {
                         return tensor::convDirect(g, in, f);
                     });
}

tensor::Tensor
convGroupedImplicit(const GroupedConvParams &params,
                    const tensor::Tensor &input,
                    const tensor::Tensor &filter)
{
    return runGroups(params, input, filter,
                     [](const ConvParams &g, const tensor::Tensor &in,
                        const tensor::Tensor &f) {
                         const PassPlan plan =
                             channelFirstPlan(g, decomposeFilter(g));
                         return gatherGemm(g, in, plan,
                                           tapStrips(g, f, plan.taps),
                                           pixelGather(g, in));
                     });
}

double
groupedRowOccupancy(const GroupedConvParams &params, Index array_rows)
{
    params.validate();
    const ConvParams g = params.groupParams();
    const Index t = tpuMultiTileParam(array_rows, g);
    return std::min(1.0, static_cast<double>(t * g.inChannels) /
                             static_cast<double>(array_rows));
}

} // namespace cfconv::im2col
