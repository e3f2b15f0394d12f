/** @file The explicit-im2col reference the lowering tests compare
 *  against: lower the whole feature matrix (tensor::im2colLower),
 *  flatten the filter to match, multiply with tensor::gemm and fold the
 *  product back into an NCHW OFMap. It shares nothing with the
 *  library's one convolution engine (im2col::gatherGemm) but the
 *  lowering, so an engine change that moves a byte shows here. */

#ifndef CFCONV_TESTS_COMMON_EXPLICIT_ORACLE_H
#define CFCONV_TESTS_COMMON_EXPLICIT_ORACLE_H

#include "common/parallel.h"
#include "tensor/gemm.h"
#include "tensor/im2col_explicit.h"

namespace cfconv::tensor {

/**
 * Flatten the (C_O, C_I, H_F, W_F) filter tensor into the K x C_O matrix
 * whose row order matches @p order, so that lowered * flattened = OFMap.
 * Checks @p filter with checkFilter().
 */
inline Matrix
flattenFilter(const ConvParams &params, const Tensor &filter,
              ColumnOrder order)
{
    checkFilter(params, filter);
    Matrix flat(params.gemmK(), params.gemmN());
    for (Index k = 0; k < flat.rows(); ++k) {
        const ColCoord cc = colCoord(params, order, k);
        for (Index co = 0; co < params.outChannels; ++co)
            flat.at(k, co) = filter.at(co, cc.ci, cc.r, cc.s);
    }
    return flat;
}

/** Reshape a GEMM output (M x C_O) into the (N, C_O, H_O, W_O) OFMap. */
inline Tensor
foldOutput(const ConvParams &params, const Matrix &gemm_out)
{
    CFCONV_FATAL_IF(gemm_out.rows() != params.gemmM() ||
                    gemm_out.cols() != params.gemmN(),
                    "foldOutput: GEMM output shape mismatch");
    Tensor out(params.batch, params.outChannels, params.outH(),
               params.outW(), Layout::NCHW);
    // Distinct GEMM rows map to distinct (n, oh, ow) positions, so row
    // blocks write disjoint output elements.
    parallel::parallelFor(
        0, gemm_out.rows(), 64, [&](Index m0, Index m1) {
            for (Index m = m0; m < m1; ++m) {
                const RowCoord rc = rowCoord(params, m);
                for (Index co = 0; co < params.outChannels; ++co)
                    out.at(rc.n, co, rc.oh, rc.ow) = gemm_out.at(m, co);
            }
        });
    return out;
}

/** Convolution by explicit lowering + GEMM + fold in @p order. */
inline Tensor
convExplicitIm2col(const ConvParams &params, const Tensor &input,
                   const Tensor &filter, ColumnOrder order)
{
    const Matrix lowered = im2colLower(params, input, order);
    const Matrix flat = flattenFilter(params, filter, order);
    Matrix out(params.gemmM(), params.gemmN());
    gemm(lowered, flat, out);
    return foldOutput(params, out);
}

} // namespace cfconv::tensor

#endif // CFCONV_TESTS_COMMON_EXPLICIT_ORACLE_H
