/**
 * @file
 * Internal contract between the micro-kernel driver (microkernel.cc)
 * and the AVX2 translation unit (microkernel_avx2.cc, the only TU in
 * the tree built with -mavx2 -mfma). Not installed; do not include
 * outside src/tensor.
 *
 * Panel-kernel contract: compute the full kMicroRows x kMicroCols tile
 *
 *     C[i][j] (+)= sum_p a_panel[p * MR + i] * b_panel[p * NR + j]
 *
 * for p in [0, kc). `a_panel` is an MR-interleaved A micro-panel and
 * `b_panel` an NR-interleaved B micro-panel, both contiguous and
 * zero-padded by the packer; `c` is the row-major output tile with
 * leading dimension `ldc`. When `load_c` is false the accumulators
 * start from zero (overwrite); when true they are seeded from C.
 * Kernels must accumulate in ascending p order so that, per backend,
 * results are independent of blocking and thread count.
 */

#ifndef CFCONV_TENSOR_MICROKERNEL_KERNELS_H
#define CFCONV_TENSOR_MICROKERNEL_KERNELS_H

#include "common/types.h"

namespace cfconv::tensor::detail {

/** @return whether the AVX2 TU was compiled with real intrinsics. */
bool avx2CompiledIn();

/** AVX2+FMA 8x8 panel kernel (see file comment for the contract). */
void gemmPanelAvx2(Index kc, const float *a_panel, const float *b_panel,
                   float *c, Index ldc, bool load_c);

/** AVX2+FMA pointer-table tile kernel (contract: indirectTile() in
 *  microkernel.h). */
void indirectTileAvx2(Index taps, Index depth, const float *const *rows,
                      Index ld, const float *b_panel, float *c,
                      Index ldc);

/** AVX2+FMA dst[i] += scale * src[i]. */
void axpyIntoAvx2(float *dst, const float *src, float scale, Index n);

} // namespace cfconv::tensor::detail

#endif // CFCONV_TENSOR_MICROKERNEL_KERNELS_H
