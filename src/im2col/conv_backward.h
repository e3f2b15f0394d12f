/**
 * @file
 * Training-mode convolution: backward-data and backward-filter passes
 * executed with the same channel-first filter decomposition the paper
 * uses for the forward pass. TPU-v2/v3 are training chips (Sec. IV-C),
 * so the decomposed formulation must cover all three convolution
 * passes; this header provides the two gradients plus plain reference
 * implementations the tests check against.
 *
 * Both gradients reduce to per-tile GEMMs on the forward pass's
 * operands:
 *  - backward-filter: dW[r,s] = A_tile(r,s)^T * dY     (C_I x C_O)
 *  - backward-data:   dX += scatter_tile(r,s)(dY * W[r,s]^T)
 * so they inherit the forward pass's stride/padding/dilation handling
 * and its zero-materialization property. Every pass validates the
 * layer and checks the operands it takes, as the forward pass does:
 * @p grad_out against the OFMap's (N, C_O, H_O, W_O), the input and
 * the filter through tensor::checkInput() and checkFilter(); a
 * mismatch is fatal and names the dimension.
 */

#ifndef CFCONV_IM2COL_CONV_BACKWARD_H
#define CFCONV_IM2COL_CONV_BACKWARD_H

#include "im2col/filter_decomp.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace cfconv::im2col {

/**
 * Reference gradient w.r.t. the input, computed by direct loops.
 * @p grad_out has OFMap dims (N, C_O, H_O, W_O); @return IFMap dims.
 */
tensor::Tensor convBackwardDataDirect(const ConvParams &params,
                                      const tensor::Tensor &grad_out,
                                      const tensor::Tensor &filter);

/**
 * Reference gradient w.r.t. the filter, computed by direct loops.
 * @return filter dims (C_O, C_I, H_F, W_F).
 */
tensor::Tensor convBackwardFilterDirect(const ConvParams &params,
                                        const tensor::Tensor &input,
                                        const tensor::Tensor &grad_out);

/**
 * Channel-first implicit backward-data: iterates decomposed tiles,
 * computing dY (M x C_O) times W[r,s]^T (C_O x C_I) and scattering the
 * M x C_I product back to the input positions of tile <r, s>.
 */
tensor::Tensor convBackwardDataImplicit(const ConvParams &params,
                                        const tensor::Tensor &grad_out,
                                        const tensor::Tensor &filter);

/**
 * Channel-first implicit backward-filter: for each decomposed tile the
 * gradient slice is the GEMM A_tile^T (C_I x M) times dY (M x C_O);
 * tiles are independent, so no accumulation hazards exist.
 */
tensor::Tensor convBackwardFilterImplicit(const ConvParams &params,
                                          const tensor::Tensor &input,
                                          const tensor::Tensor &grad_out);

} // namespace cfconv::im2col

#endif // CFCONV_IM2COL_CONV_BACKWARD_H
