#include "tensor/conv_params.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "common/logging.h"
#include "common/memo_cache.h"

namespace cfconv::tensor {

void
ConvParams::validate() const
{
    CFCONV_FATAL_IF(batch < 1, "conv: batch %lld < 1",
                    static_cast<long long>(batch));
    CFCONV_FATAL_IF(inChannels < 1 || outChannels < 1,
                    "conv: channels must be positive (C_I=%lld C_O=%lld)",
                    static_cast<long long>(inChannels),
                    static_cast<long long>(outChannels));
    CFCONV_FATAL_IF(inH < 1 || inW < 1, "conv: input %lldx%lld invalid",
                    static_cast<long long>(inH),
                    static_cast<long long>(inW));
    CFCONV_FATAL_IF(kernelH < 1 || kernelW < 1,
                    "conv: kernel %lldx%lld invalid",
                    static_cast<long long>(kernelH),
                    static_cast<long long>(kernelW));
    CFCONV_FATAL_IF(strideH < 1 || strideW < 1,
                    "conv: stride %lldx%lld invalid",
                    static_cast<long long>(strideH),
                    static_cast<long long>(strideW));
    CFCONV_FATAL_IF(dilationH < 1 || dilationW < 1,
                    "conv: dilation %lldx%lld invalid",
                    static_cast<long long>(dilationH),
                    static_cast<long long>(dilationW));
    CFCONV_FATAL_IF(padH < 0 || padW < 0, "conv: negative padding");
    CFCONV_FATAL_IF(inH + 2 * padH < effKernelH() ||
                    inW + 2 * padW < effKernelW(),
                    "conv: kernel does not fit padded input (%s)",
                    toString().c_str());
}

std::string
ConvParams::toString() const
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
    put("N", batch);
    put(" C", inChannels);
    put(" ", inH);
    put("x", inW);
    put(" k", kernelH);
    put("x", kernelW);
    axes(" s", strideH, strideW);
    axes(" p", padH, padW);
    axes(" d", dilationH, dilationW);
    put(" -> C", outChannels);
    put(" ", outH());
    put("x", outW());
    if (dataType != DataType::Fp16) {
        const std::string_view type = dataTypeName(dataType);
        *out++ = ' ';
        out = std::copy(type.begin(), type.end(), out);
    }
    return std::string(buf, out);
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
