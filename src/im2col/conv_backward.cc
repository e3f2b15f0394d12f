#include "im2col/conv_backward.h"

#include <vector>

#include "im2col/implicit_conv.h"
#include "tensor/gemm.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::im2col {

namespace {

/** Fatal unless @p params is valid and @p grad_out is its
 *  (N, C_O, H_O, W_O). */
void
checkGradOut(const ConvParams &params, const tensor::Tensor &grad_out)
{
    params.validate();
    tensor::checkOperandDims(params, "grad_out",
                             {{"N", grad_out.n(), params.batch},
                              {"C_O", grad_out.c(), params.outChannels},
                              {"H_O", grad_out.h(), params.outH()},
                              {"W_O", grad_out.w(), params.outW()}});
}

} // namespace

tensor::Tensor
convBackwardDataDirect(const ConvParams &params,
                       const tensor::Tensor &grad_out,
                       const tensor::Tensor &filter)
{
    checkGradOut(params, grad_out);
    tensor::checkFilter(params, filter);
    tensor::Tensor grad_in(params.batch, params.inChannels, params.inH,
                           params.inW);
    for (Index n = 0; n < params.batch; ++n) {
        for (Index co = 0; co < params.outChannels; ++co) {
            for (Index oh = 0; oh < params.outH(); ++oh) {
                for (Index ow = 0; ow < params.outW(); ++ow) {
                    const float g = grad_out.at(n, co, oh, ow);
                    for (Index ci = 0; ci < params.inChannels; ++ci) {
                        for (Index r = 0; r < params.kernelH; ++r) {
                            const Index ih = oh * params.strideH -
                                params.padH + r * params.dilationH;
                            if (ih < 0 || ih >= params.inH)
                                continue;
                            for (Index s = 0; s < params.kernelW; ++s) {
                                const Index iw = ow * params.strideW -
                                    params.padW + s * params.dilationW;
                                if (iw < 0 || iw >= params.inW)
                                    continue;
                                grad_in.at(n, ci, ih, iw) +=
                                    g * filter.at(co, ci, r, s);
                            }
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

tensor::Tensor
convBackwardFilterDirect(const ConvParams &params,
                         const tensor::Tensor &input,
                         const tensor::Tensor &grad_out)
{
    tensor::checkInput(params, input);
    checkGradOut(params, grad_out);
    tensor::Tensor grad_w(params.outChannels, params.inChannels,
                          params.kernelH, params.kernelW);
    for (Index co = 0; co < params.outChannels; ++co) {
        for (Index ci = 0; ci < params.inChannels; ++ci) {
            for (Index r = 0; r < params.kernelH; ++r) {
                for (Index s = 0; s < params.kernelW; ++s) {
                    float acc = 0.0f;
                    for (Index n = 0; n < params.batch; ++n) {
                        for (Index oh = 0; oh < params.outH(); ++oh) {
                            const Index ih = oh * params.strideH -
                                params.padH + r * params.dilationH;
                            for (Index ow = 0; ow < params.outW();
                                 ++ow) {
                                const Index iw = ow * params.strideW -
                                    params.padW + s * params.dilationW;
                                acc += input.atPadded(n, ci, ih, iw) *
                                       grad_out.at(n, co, oh, ow);
                            }
                        }
                    }
                    grad_w.at(co, ci, r, s) = acc;
                }
            }
        }
    }
    return grad_w;
}

tensor::Tensor
convBackwardDataImplicit(const ConvParams &params,
                         const tensor::Tensor &grad_out,
                         const tensor::Tensor &filter)
{
    checkGradOut(params, grad_out);
    tensor::checkFilter(params, filter);

    // Flatten dY to the (M x C_O) GEMM operand once.
    tensor::Matrix dy(params.gemmM(), params.gemmN());
    for (Index m = 0; m < dy.rows(); ++m) {
        const tensor::RowCoord rc = tensor::rowCoord(params, m);
        for (Index co = 0; co < params.outChannels; ++co)
            dy.at(m, co) = grad_out.at(rc.n, co, rc.oh, rc.ow);
    }

    tensor::Tensor grad_in(params.batch, params.inChannels, params.inH,
                           params.inW);
    for (const FilterTile &tile : decomposeFilter(params)) {
        // W[r,s]^T: C_O x C_I.
        tensor::Matrix wt(params.outChannels, params.inChannels);
        for (Index co = 0; co < params.outChannels; ++co)
            for (Index ci = 0; ci < params.inChannels; ++ci)
                wt.at(co, ci) = filter.at(co, ci, tile.r, tile.s);

        tensor::Matrix dx_tile(params.gemmM(), params.inChannels);
        tensor::gemm(dy, wt, dx_tile);

        // Scatter: row m of this tile's operand came from the input
        // pixel the address function names; gradients flow back to
        // exactly that element (padding rows fall off).
        for (Index m = 0; m < dx_tile.rows(); ++m) {
            const tensor::RowCoord rc = tensor::rowCoord(params, m);
            const Index ih = params.inputRow(rc.oh, tile.r);
            const Index iw = params.inputCol(rc.ow, tile.s);
            if (!params.inInput(ih, iw))
                continue;
            for (Index ci = 0; ci < params.inChannels; ++ci)
                grad_in.at(rc.n, ci, ih, iw) += dx_tile.at(m, ci);
        }
    }
    return grad_in;
}

tensor::Tensor
convBackwardFilterImplicit(const ConvParams &params,
                           const tensor::Tensor &input,
                           const tensor::Tensor &grad_out)
{
    tensor::checkInput(params, input);
    checkGradOut(params, grad_out);

    tensor::Matrix dy(params.gemmM(), params.gemmN());
    for (Index m = 0; m < dy.rows(); ++m) {
        const tensor::RowCoord rc = tensor::rowCoord(params, m);
        for (Index co = 0; co < params.outChannels; ++co)
            dy.at(m, co) = grad_out.at(rc.n, co, rc.oh, rc.ow);
    }

    tensor::Tensor grad_w(params.outChannels, params.inChannels,
                          params.kernelH, params.kernelW);
    // Each tap's (M x C_I) forward operand, copied through the pixel
    // producer's pointers.
    const Index c_i = params.inChannels;
    const PassPlan plan = channelFirstPlan(params, decomposeFilter(params));
    const TapPointers pixels = pixelGather(params, input);
    std::vector<float> a(static_cast<size_t>(params.gemmM() * c_i));
    for (const PlanPass &pass : plan.passes(c_i)) {
        const FilterTile &tile = plan.taps[static_cast<size_t>(pass.firstTap)];
        gatherPass(pixels, plan, pass, 0, params.gemmM(), a.data());
        // dW[r,s] = A^T * dY: (C_I x M) * (M x C_O). Halo zeros count
        // too: 0 * Inf/NaN in dY must reach dW as it does in the direct
        // pass.
        tensor::Matrix dw(params.inChannels, params.outChannels);
        for (Index ci = 0; ci < params.inChannels; ++ci)
            for (Index m = 0; m < params.gemmM(); ++m) {
                const float av = a[static_cast<size_t>(m * c_i + ci)];
                for (Index co = 0; co < params.outChannels; ++co)
                    dw.at(ci, co) += av * dy.at(m, co);
            }
        for (Index co = 0; co < params.outChannels; ++co)
            for (Index ci = 0; ci < params.inChannels; ++ci)
                grad_w.at(co, ci, tile.r, tile.s) = dw.at(ci, co);
    }
    return grad_w;
}

} // namespace cfconv::im2col
