#include "tensor/conv_ref.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "tensor/im2col_explicit.h"
#include "tensor/microkernel.h"

namespace cfconv::tensor {

namespace {

/**
 * Vectorized NCHW plane: for stride-1 rows the ow loop is a SAXPY over
 * a contiguous input span, dispatched to the active micro-kernel
 * backend. Accumulation per output element stays in the reference
 * (ci, r, s) order, so the only difference from the per-element plane
 * is FMA/vector rounding. Both planes take a group's geometry
 * (groupSlice()) and read its input channels from @p ci0 on.
 */
void
convPlaneFast(const ConvParams &params, const Tensor &input,
              const Tensor &filter, Tensor &out, Index n, Index co,
              Index ci0)
{
    const Index ho = params.outH(), wo = params.outW();
    float *out_plane = out.data() + out.offsetOf(n, co, 0, 0);
    for (Index ci = 0; ci < params.inChannels; ++ci) {
        for (Index r = 0; r < params.kernelH; ++r) {
            const Index off_h = r * params.dilationH - params.padH;
            for (Index oh = 0; oh < ho; ++oh) {
                const Index ih = oh * params.strideH + off_h;
                if (ih < 0 || ih >= params.inH)
                    continue;
                const float *in_row =
                    input.data() + input.offsetOf(n, ci0 + ci, ih, 0);
                float *out_row = out_plane + oh * wo;
                for (Index s = 0; s < params.kernelW; ++s) {
                    const float f = filter.at(co, ci, r, s);
                    const Index off_w =
                        s * params.dilationW - params.padW;
                    if (params.strideW == 1) {
                        const Index ow_lo = std::max<Index>(0, -off_w);
                        const Index ow_hi = std::min(
                            wo - 1, params.inW - 1 - off_w);
                        if (ow_lo > ow_hi)
                            continue;
                        vectorAxpyInto(out_row + ow_lo,
                                       in_row + ow_lo + off_w, f,
                                       ow_hi - ow_lo + 1);
                    } else {
                        for (Index ow = 0; ow < wo; ++ow) {
                            const Index iw =
                                ow * params.strideW + off_w;
                            if (iw >= 0 && iw < params.inW)
                                out_row[ow] += f * in_row[iw];
                        }
                    }
                }
            }
        }
    }
}

/** True when filter slice @p co of the NCHW @p filter holds a
 *  non-finite weight. Every output of that plane adds it times a pixel
 *  or a halo zero, so none is finite; only the per-element plane, which
 *  multiplies the halo zeros too, gets the IEEE result (Inf * 0 = NaN)
 *  where the fast plane skips the halo. */
bool
hasNonFiniteWeight(const ConvParams &params, const Tensor &filter,
                   Index co)
{
    const float *w = filter.data() + filter.offsetOf(co, 0, 0, 0);
    return !std::all_of(
        w, w + params.inChannels * params.kernelH * params.kernelW,
        [](float v) { return std::isfinite(v); });
}

/** The per-element plane loop through atPadded(): any operand layout. */
void
convPlanePerElement(const ConvParams &params, const Tensor &input,
                    const Tensor &filter, Tensor &out, Index n, Index co,
                    Index ci0)
{
    const Index ho = params.outH(), wo = params.outW();
    for (Index oh = 0; oh < ho; ++oh) {
        for (Index ow = 0; ow < wo; ++ow) {
            float acc = 0.0f;
            for (Index ci = 0; ci < params.inChannels; ++ci) {
                for (Index r = 0; r < params.kernelH; ++r) {
                    const Index ih = oh * params.strideH -
                        params.padH + r * params.dilationH;
                    for (Index s = 0; s < params.kernelW; ++s) {
                        const Index iw = ow * params.strideW -
                            params.padW + s * params.dilationW;
                        acc += input.atPadded(n, ci0 + ci, ih, iw) *
                               filter.at(co, ci, r, s);
                    }
                }
            }
            out.at(n, co, oh, ow) = acc;
        }
    }
}

} // namespace

Tensor
convDirect(const ConvParams &params, const Tensor &input,
           const Tensor &filter, Index groups)
{
    params.validate(groups);
    checkInput(params, input);
    checkFilter(params, filter, groups);
    const ConvParams slice = groupSlice(params, groups);

    Tensor out(params.batch, params.outChannels, params.outH(),
               params.outW(), Layout::NCHW);

    // The fast plane needs contiguous NCHW rows and skips the halo, so
    // a plane with a non-finite weight takes the per-element one.
    const bool nchw = input.layout() == Layout::NCHW &&
                      filter.layout() == Layout::NCHW;

    // Parallel over (batch, output-channel) slices: each worker owns a
    // disjoint set of output planes, and the per-output accumulation
    // order is unchanged, so results are bit-exact vs the serial path.
    parallel::parallelFor(
        0, params.batch * params.outChannels, 1,
        [&](Index plane0, Index plane1) {
            for (Index plane = plane0; plane < plane1; ++plane) {
                const Index n = plane / params.outChannels;
                const Index co = plane % params.outChannels;
                const Index ci0 =
                    co / slice.outChannels * slice.inChannels;
                if (nchw && !hasNonFiniteWeight(slice, filter, co))
                    convPlaneFast(slice, input, filter, out, n, co, ci0);
                else
                    convPlanePerElement(slice, input, filter, out, n, co,
                                        ci0);
            }
        });
    return out;
}

Tensor
makeInput(const ConvParams &params, Layout layout)
{
    return Tensor(params.batch, params.inChannels, params.inH,
                  params.inW, layout);
}

Tensor
makeFilter(const ConvParams &params, Index groups)
{
    return Tensor(params.outChannels, groupSlice(params, groups).inChannels,
                  params.kernelH, params.kernelW, Layout::NCHW);
}

} // namespace cfconv::tensor
