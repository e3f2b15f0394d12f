#include "tensor/conv_params.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/logging.h"
#include "common/memo_cache.h"

namespace cfconv::tensor {

namespace {

/**
 * toString()'s text. The output shape comes only @p with_output: it
 * divides by the stride, which a layer checkLayer() refuses may have
 * as zero.
 */
std::string
describe(const ConvParams &p, bool with_output)
{
    // Thirteen numbers of at most 20 characters each, plus the text;
    // built in place so the result is allocated once, at its length.
    char buf[13 * 20 + 64];
    char *out = buf;
    const auto put = [&out](std::string_view text, Index value) {
        out = std::copy(text.begin(), text.end(), out);
        out = std::to_chars(out, out + 20, value).ptr;
    };
    // One value when both axes agree, "HxW" when they differ.
    const auto axes = [&put](std::string_view tag, Index h, Index w) {
        put(tag, h);
        if (w != h)
            put("x", w);
    };
    put("N", p.batch);
    put(" C", p.inChannels);
    put(" ", p.inH);
    put("x", p.inW);
    put(" k", p.kernelH);
    put("x", p.kernelW);
    axes(" s", p.strideH, p.strideW);
    axes(" p", p.padH, p.padW);
    axes(" d", p.dilationH, p.dilationW);
    put(" -> C", p.outChannels);
    if (with_output) {
        put(" ", p.outH());
        put("x", p.outW());
    }
    if (p.dataType != DataType::Fp16) {
        const std::string_view type = dataTypeName(p.dataType);
        *out++ = ' ';
        out = std::copy(type.begin(), type.end(), out);
    }
    return std::string(buf, out);
}

/** The least value of each field checkLayer() bounds, in the order it
 *  checks them. */
constexpr struct
{
    const char *name;
    Index ConvParams::*field;
    Index least;
} kFieldBounds[] = {
    {"batch", &ConvParams::batch, 1},
    {"inChannels", &ConvParams::inChannels, 1},
    {"outChannels", &ConvParams::outChannels, 1},
    {"inH", &ConvParams::inH, 1},
    {"inW", &ConvParams::inW, 1},
    {"kernelH", &ConvParams::kernelH, 1},
    {"kernelW", &ConvParams::kernelW, 1},
    {"strideH", &ConvParams::strideH, 1},
    {"strideW", &ConvParams::strideW, 1},
    {"dilationH", &ConvParams::dilationH, 1},
    {"dilationW", &ConvParams::dilationW, 1},
    {"padH", &ConvParams::padH, 0},
    {"padW", &ConvParams::padW, 0},
};

/** The first rule of a valid layer that @p p breaks run @p groups-way
 *  grouped, as the words "<what> = <value> <rule> <limit>"; `what` is
 *  null when the layer keeps every rule. Plain values, so checking a
 *  valid layer builds nothing, and validate() inlines the walk. */
struct Breach
{
    const char *what = nullptr;
    Index value = 0;
    const char *rule = nullptr;
    Index limit = 0;
};

inline Breach
firstBreach(const ConvParams &p, Index groups)
{
    // Unrolled, a valid layer pays 13 compares and no loop: makeConv
    // validates every layer a model is built from.
#pragma GCC unroll 13
    for (const auto &bound : kFieldBounds)
        if (p.*bound.field < bound.least)
            return {bound.name, p.*bound.field, "must be >=", bound.least};
    // With stride >= 1, a kernel that fits gives outH(), outW() >= 1.
    if (p.effKernelH() > p.inH + 2 * p.padH)
        return {"dilated kernel height", p.effKernelH(),
                "exceeds padded input height", p.inH + 2 * p.padH};
    if (p.effKernelW() > p.inW + 2 * p.padW)
        return {"dilated kernel width", p.effKernelW(),
                "exceeds padded input width", p.inW + 2 * p.padW};
    if (groups < 1)
        return {"groups", groups, "must be >=", 1};
    // Every channel count divides into one group: skip the divisions.
    if (groups > 1 && p.inChannels % groups != 0)
        return {"groups", groups, "does not divide inChannels =",
                p.inChannels};
    if (groups > 1 && p.outChannels % groups != 0)
        return {"groups", groups, "does not divide outChannels =",
                p.outChannels};
    return {};
}

} // namespace

Status
checkLayer(const ConvParams &params, Index groups)
{
    const Breach breach = firstBreach(params, groups);
    if (breach.what == nullptr)
        return okStatus();
    return invalidArgumentError("layer %s: %s = %lld %s %lld",
                                describe(params, false).c_str(),
                                breach.what,
                                static_cast<long long>(breach.value),
                                breach.rule,
                                static_cast<long long>(breach.limit));
}

void
ConvParams::validate(Index groups) const
{
    if (firstBreach(*this, groups).what != nullptr)
        fatal("%s", checkLayer(*this, groups).message().c_str());
}

ConvParams
groupSlice(const ConvParams &params, Index groups)
{
    CFCONV_ASSERT(groups >= 1, "(groupSlice on a group count checkLayer "
                               "refuses)");
    ConvParams slice = params;
    slice.inChannels = params.inChannels / groups;
    slice.outChannels = params.outChannels / groups;
    return slice;
}

Flops
groupedFlops(const ConvParams &params, Index groups)
{
    return params.flops() / static_cast<Flops>(groups);
}

std::string
ConvParams::toString() const
{
    return describe(*this, true);
}

ConvParams
makeConvRect(Index batch, Index in_channels, Index in_h, Index in_w,
             Index out_channels, Index kernel_h, Index kernel_w,
             Index stride_h, Index stride_w, Index pad_h, Index pad_w,
             Index dilation_h, Index dilation_w)
{
    ConvParams p;
    p.batch = batch;
    p.inChannels = in_channels;
    p.inH = in_h;
    p.inW = in_w;
    p.outChannels = out_channels;
    p.kernelH = kernel_h;
    p.kernelW = kernel_w;
    p.strideH = stride_h;
    p.strideW = stride_w;
    p.padH = pad_h;
    p.padW = pad_w;
    p.dilationH = dilation_h;
    p.dilationW = dilation_w;
    p.validate();
    return p;
}

ConvParams
makeConv(Index batch, Index in_channels, Index in_hw, Index out_channels,
         Index kernel, Index stride, Index pad, Index dilation)
{
    ConvParams p;
    p.batch = batch;
    p.inChannels = in_channels;
    p.inH = p.inW = in_hw;
    p.outChannels = out_channels;
    p.kernelH = p.kernelW = kernel;
    p.strideH = p.strideW = stride;
    p.padH = p.padW = pad;
    p.dilationH = p.dilationW = dilation;
    p.validate();
    return p;
}

void
memoKeyAppend(std::string &key, const ConvParams &params)
{
    for (const Index field :
         {params.batch, params.inChannels, params.inH, params.inW,
          params.outChannels, params.kernelH, params.kernelW,
          params.strideH, params.strideW, params.padH, params.padW,
          params.dilationH, params.dilationW})
        memoKeyAppendInt(key, field);
    memoKeyAppendInt(key, static_cast<long long>(params.dataType));
}

} // namespace cfconv::tensor
