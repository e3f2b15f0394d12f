/**
 * @file
 * Internal contract between the micro-kernel driver (microkernel.cc)
 * and the AVX2 translation unit (microkernel_avx2.cc, the only TU in
 * the tree built with -mavx2 -mfma). Not installed; do not include
 * outside src/tensor.
 */

#ifndef CFCONV_TENSOR_MICROKERNEL_KERNELS_H
#define CFCONV_TENSOR_MICROKERNEL_KERNELS_H

#include "common/types.h"

namespace cfconv::tensor::detail {

/** @return whether the AVX2 TU was compiled with real intrinsics. */
bool avx2CompiledIn();

/** AVX2+FMA pointer-table tile kernel (contract: indirectTile() in
 *  microkernel.h). */
void indirectTileAvx2(Index taps, Index depth, const float *const *rows,
                      Index ld, const float *b_panel, float *c,
                      Index ldc, bool accumulate);

/** AVX2+FMA dst[i] += scale * src[i]. */
void axpyIntoAvx2(float *dst, const float *src, float scale, Index n);

} // namespace cfconv::tensor::detail

#endif // CFCONV_TENSOR_MICROKERNEL_KERNELS_H
