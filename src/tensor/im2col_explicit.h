/**
 * @file
 * Explicit im2col's lowering: materialize the lowered feature matrix
 * (Fig 1) in either column order (Fig 6), plus the row and column
 * coordinates and operand checks every lowering shares. Every cell
 * reads the input pixel ConvParams::inputRow()/inputCol() name. The
 * explicit conv::Algorithm writes the whole channel-last matrix as its
 * workspace before the GEMM reads it back (the baseline whose overheads
 * motivate the paper, Sec. II-B); channel-last lowers one work unit's
 * rows at a time. The lower + flatten + GEMM + fold reference that the
 * tests hold every lowering to is tests/common/explicit_oracle.h.
 */

#ifndef CFCONV_TENSOR_IM2COL_EXPLICIT_H
#define CFCONV_TENSOR_IM2COL_EXPLICIT_H

#include <initializer_list>

#include "tensor/conv_params.h"
#include "tensor/layout.h"
#include "tensor/tensor.h"

namespace cfconv::tensor {

/**
 * Decompose a lowered-matrix row index m into (batch n, output row oh,
 * output column ow): m = ((n * H_O) + oh) * W_O + ow.
 */
struct RowCoord
{
    Index n, oh, ow;
};

RowCoord rowCoord(const ConvParams &params, Index m);

/** Step @p rc from row m's coordinates to row m + 1's, without the
 *  divisions of rowCoord(). */
inline void
nextRow(const ConvParams &params, RowCoord &rc)
{
    if (++rc.ow < params.outW())
        return;
    rc.ow = 0;
    if (++rc.oh < params.outH())
        return;
    rc.oh = 0;
    ++rc.n;
}

/**
 * Decompose a lowered-matrix column index k into (filter row r, filter
 * col s, input channel ci) according to @p order:
 *  - ChannelLast:  k = (ci * H_F + r) * W_F + s
 *  - ChannelFirst: k = (r * W_F + s) * C_I + ci
 */
struct ColCoord
{
    Index r, s, ci;
};

ColCoord colCoord(const ConvParams &params, ColumnOrder order, Index k);

/** Inverse of colCoord(). */
Index colIndex(const ConvParams &params, ColumnOrder order, Index r,
               Index s, Index ci);

/**
 * Lower rows [m0, m1) of the lowered feature matrix into @p dst
 * ((m1 - m0) x K, row-major); honors stride, padding, and dilation.
 */
void im2colLowerRows(const ConvParams &params, const Tensor &input,
                     ColumnOrder order, Index m0, Index m1, float *dst);

/**
 * Materialize the full lowered feature matrix:
 * (M = N*H_O*W_O) x (K = H_F*W_F*C_I). This is the explicit im2col
 * transformation whose workspace is params.loweredBytes().
 */
Matrix im2colLower(const ConvParams &params, const Tensor &input,
                   ColumnOrder order);

/** One dimension of a conv operand: its name, its size, and the size
 *  the layer's ConvParams give it. */
struct OperandDim
{
    const char *name;
    Index got, want;
};

/**
 * Fatal unless every dimension of @p operand matches @p params; the
 * message names the first that does not ("conv: filter C_I is 3 but
 * the layer has 4 (...)").
 */
void checkOperandDims(const ConvParams &params, const char *operand,
                      std::initializer_list<OperandDim> dims);

/** The one input check of every conv pass: fatal unless @p params
 *  is valid (ConvParams::validate()) and @p input is its
 *  (N, C_I, H_I, W_I) (see checkOperandDims()). */
void checkInput(const ConvParams &params, const Tensor &input);

/** The one filter check of every conv pass: @p filter must be
 *  (C_O, C_I/G, H_F, W_F) of @p params run @p groups-way grouped, the
 *  C_I of groupSlice() (see checkOperandDims()). */
void checkFilter(const ConvParams &params, const Tensor &filter,
                 Index groups = 1);

/**
 * col2im: scatter-accumulate a lowered matrix back into input geometry.
 * Each input element receives the sum of all lowered cells that reference
 * it (its receptive-field multiplicity). Used by tests and useful for
 * convolution backward-data.
 */
Tensor col2im(const ConvParams &params, const Matrix &lowered,
              ColumnOrder order);

} // namespace cfconv::tensor

#endif // CFCONV_TENSOR_IM2COL_EXPLICIT_H
