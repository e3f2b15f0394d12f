/**
 * @file
 * Convolution layer descriptor: geometry, striding, padding, dilation,
 * output-shape and cost computation. This is the workload unit consumed by
 * every simulator and benchmark in cfconv.
 */

#ifndef CFCONV_TENSOR_CONV_PARAMS_H
#define CFCONV_TENSOR_CONV_PARAMS_H

#include <string>

#include "common/status.h"
#include "common/types.h"

namespace cfconv::tensor {

/**
 * Parameters of a 2-D convolution. All dimensions are logical; the data
 * layout is chosen separately. Supports strided, padded, and dilated
 * convolution (the CONV variants of Sec. II-C / III-B).
 */
struct ConvParams
{
    Index batch = 1;       ///< N
    Index inChannels = 1;  ///< C_I
    Index inH = 1;         ///< H_I
    Index inW = 1;         ///< W_I
    Index outChannels = 1; ///< C_O
    Index kernelH = 1;     ///< H_F
    Index kernelW = 1;     ///< W_F
    Index strideH = 1;
    Index strideW = 1;
    Index padH = 0;
    Index padW = 0;
    Index dilationH = 1;
    Index dilationW = 1;
    DataType dataType = DataType::Fp16;

    /** Effective kernel extent in H after dilation. */
    Index effKernelH() const { return dilationH * (kernelH - 1) + 1; }
    /** Effective kernel extent in W after dilation. */
    Index effKernelW() const { return dilationW * (kernelW - 1) + 1; }

    /** Output feature map height H_O. */
    Index
    outH() const
    {
        return (inH + 2 * padH - effKernelH()) / strideH + 1;
    }

    /** Output feature map width W_O. */
    Index
    outW() const
    {
        return (inW + 2 * padW - effKernelW()) / strideW + 1;
    }

    /**
     * The address function of every lowering: the input row output row
     * @p oh reads through filter row @p r. Outside [0, H_I) it lies in
     * the zero-padding halo.
     */
    Index
    inputRow(Index oh, Index r) const
    {
        return oh * strideH - padH + r * dilationH;
    }

    /** inputRow()'s twin along W: output col @p ow, filter col @p s. */
    Index
    inputCol(Index ow, Index s) const
    {
        return ow * strideW - padW + s * dilationW;
    }

    /** @return true when input pixel (@p ih, @p iw) is not padding. */
    bool
    inInput(Index ih, Index iw) const
    {
        return ih >= 0 && ih < inH && iw >= 0 && iw < inW;
    }

    /** Rows of the lowered feature matrix: M = N * H_O * W_O. */
    Index gemmM() const { return batch * outH() * outW(); }
    /** Depth of the lowered GEMM: K = H_F * W_F * C_I. */
    Index gemmK() const { return kernelH * kernelW * inChannels; }
    /** Columns of the lowered GEMM: C_O. */
    Index gemmN() const { return outChannels; }

    /** Element count of the IFMap. */
    Index inputElems() const { return batch * inChannels * inH * inW; }
    /** Element count of the OFMap. */
    Index
    outputElems() const
    {
        return batch * outChannels * outH() * outW();
    }
    /** Element count of the filter tensor. */
    Index
    filterElems() const
    {
        return outChannels * inChannels * kernelH * kernelW;
    }
    /** Element count of the materialized lowered feature matrix. */
    Index loweredElems() const { return gemmM() * gemmK(); }

    /** IFMap size in bytes at the configured data type. */
    Bytes
    inputBytes() const
    {
        return static_cast<Bytes>(inputElems()) * dataTypeSize(dataType);
    }
    /** OFMap size in bytes. */
    Bytes
    outputBytes() const
    {
        return static_cast<Bytes>(outputElems()) * dataTypeSize(dataType);
    }
    /** Filter size in bytes. */
    Bytes
    filterBytes() const
    {
        return static_cast<Bytes>(filterElems()) * dataTypeSize(dataType);
    }
    /** Materialized lowered-matrix workspace in bytes (explicit im2col). */
    Bytes
    loweredBytes() const
    {
        return static_cast<Bytes>(loweredElems()) * dataTypeSize(dataType);
    }

    /** Total multiply-accumulate FLOPs (2 per MAC). */
    Flops
    flops() const
    {
        return 2ULL * static_cast<Flops>(gemmM()) *
               static_cast<Flops>(gemmK()) * static_cast<Flops>(gemmN());
    }

    /** @return true when this layer is plain 1x1 / stride 1 / no pad. */
    bool
    isPointwise() const
    {
        return kernelH == 1 && kernelW == 1 && strideH == 1 &&
               strideW == 1 && padH == 0 && padW == 0;
    }

    /**
     * fatal() with checkLayer()'s message unless checkLayer(*this,
     * @p groups) is OK: the edge where the value-returning entries
     * (makeConv, convDirect(), Accelerator::runLayer)
     * turn an invalid layer into a FatalError. Holds no rule of its
     * own.
     */
    void validate(Index groups = 1) const;

    /**
     * Canonical one-line description, e.g.
     * "N8 C64 56x56 k3x3 s1 p1 d1 -> C64 56x56". Stride, padding and
     * dilation print one value when H and W agree and "HxW" when they
     * differ ("s1x2 p0x27 d1"); a data type other than fp16 is
     * appended ("... -> C64 56x56 fp32"). Two layers that compare
     * unequal never print the same string, so the autotuner's cache
     * and the tuned-config database key on it.
     */
    std::string toString() const;

    bool operator==(const ConvParams &other) const = default;
};

/**
 * The one statement of a valid layer, run @p groups-way grouped:
 * batch, channels, input and kernel extents, stride and dilation
 * >= 1; padding >= 0; the dilated kernel inside the padded input,
 * which makes outH() and outW() >= 1; and @p groups >= 1 dividing
 * C_I and C_O. Otherwise INVALID_ARGUMENT names the first field that
 * breaks a rule ("layer N1 C64 56x56 k3x3 s0x1 p1 d1 -> C64: strideH
 * = 0 must be >= 1", "...: groups = 3 does not divide inChannels =
 * 64"); its layer description is toString()'s without the output
 * shape, which divides by the stride. A valid layer costs the
 * compares and builds no string.
 */
Status checkLayer(const ConvParams &params, Index groups = 1);

/**
 * One group of @p params run @p groups-way grouped (filter
 * decomposition, Sec. III-B: a grouped layer is G independent
 * convolutions over channel slices): C_I/G input and C_O/G output
 * channels, every other field unchanged; @p params itself at
 * @p groups = 1. The one rule for a group's geometry; call it on a
 * layer checkLayer(params, groups) accepts.
 */
ConvParams groupSlice(const ConvParams &params, Index groups);

/** MAC FLOPs of @p params run @p groups-way grouped: the G slices'
 *  groupSlice().flops(), which is flops() / G. */
Flops groupedFlops(const ConvParams &params, Index groups);

/** Convenience builder for square-geometry layers used all over tests. */
ConvParams makeConv(Index batch, Index in_channels, Index in_hw,
                    Index out_channels, Index kernel, Index stride = 1,
                    Index pad = 0, Index dilation = 1);

/**
 * Fully general builder: rectangular inputs/kernels and independent
 * per-axis stride/pad/dilation.
 */
ConvParams makeConvRect(Index batch, Index in_channels, Index in_h,
                        Index in_w, Index out_channels, Index kernel_h,
                        Index kernel_w, Index stride_h, Index stride_w,
                        Index pad_h, Index pad_w, Index dilation_h = 1,
                        Index dilation_w = 1);

/** Append every field of @p params to a memo-cache key (common/
 *  memo_cache.h's `value|` format). */
void memoKeyAppend(std::string &key, const ConvParams &params);

} // namespace cfconv::tensor

#endif // CFCONV_TENSOR_CONV_PARAMS_H
