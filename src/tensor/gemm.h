/**
 * @file
 * GEMM over the Matrix type: the golden functional kernel the implicit
 * engines are checked against. It runs on the runtime-dispatched
 * pointer-table tile (tensor/microkernel.h), avx2 or generic, with
 * each row pointer aimed straight into A: the same tile, and so the
 * same bytes, as an implicit convolution over the lowered matrix.
 *
 * IEEE note: no backend skips zero A operands, so 0 * NaN/Inf
 * contributions from B propagate as IEEE requires.
 */

#ifndef CFCONV_TENSOR_GEMM_H
#define CFCONV_TENSOR_GEMM_H

#include "tensor/tensor.h"

namespace cfconv::tensor {

/** C = A(MxK) * B(KxN). Overwrites @p c. */
void gemm(const Matrix &a, const Matrix &b, Matrix &c);

} // namespace cfconv::tensor

#endif // CFCONV_TENSOR_GEMM_H
