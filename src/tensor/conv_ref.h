/**
 * @file
 * Direct (sliding-window) convolution reference implementation. The golden
 * semantics every lowering scheme must match.
 */

#ifndef CFCONV_TENSOR_CONV_REF_H
#define CFCONV_TENSOR_CONV_REF_H

#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace cfconv::tensor {

/**
 * Direct convolution, run @p groups-way grouped. @p input has dims
 * (N, C_I, H_I, W_I), @p filter has dims (C_O, C_I/G, H_F, W_F) (N
 * slot carries C_O). Returns the OFMap with dims (N, C_O, H_O, W_O) in
 * NCHW layout. Honors stride, padding, and dilation from @p params.
 * Output channel co of group g = co / (C_O/G) reads input channels
 * [g * C_I/G, (g + 1) * C_I/G) in place, so each group's bytes are
 * those of an ungrouped convDirect() on its groupSlice(). Every output
 * adds each weight times a pixel or a halo zero, so a non-finite weight
 * that meets the halo gives NaN there, as in every conv::Algorithm,
 * whatever the operand layout. An invalid layer or group count, or an
 * operand of other dims, is fatal, through the same checks as execute()
 * (ConvParams::validate(), checkInput(), checkFilter()).
 */
Tensor convDirect(const ConvParams &params, const Tensor &input,
                  const Tensor &filter, Index groups = 1);

/** Allocate an input tensor with dimensions demanded by @p params. */
Tensor makeInput(const ConvParams &params,
                 Layout layout = Layout::NCHW);

/** Allocate a filter tensor (C_O, C_I/G, H_F, W_F) for @p params run
 *  @p groups-way grouped. */
Tensor makeFilter(const ConvParams &params, Index groups = 1);

} // namespace cfconv::tensor

#endif // CFCONV_TENSOR_CONV_REF_H
