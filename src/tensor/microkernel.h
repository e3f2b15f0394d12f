/**
 * @file
 * SIMD micro-kernel subsystem: one runtime-dispatched 8x8 register tile
 * per backend, fed through a table of row pointers (Dukhan's indirect
 * GEMM). This is the single hot loop under every functional GEMM in
 * the repo: tensor::gemm(), the GPU block kernel's staged MMA and every
 * conv::Algorithm::execute() (im2col::gatherGemm) all route here.
 *
 * Kernel hierarchy (see DESIGN.md "Micro-kernel GEMM"):
 *
 *   dispatch  — CPUID picks avx2, else generic, at first use;
 *               CFCONV_KERNEL=avx2|generic overrides it for a whole run;
 *   packing   — B is packed once per call into 8-column strips
 *               (packColumnStrips()), from a row-major matrix or
 *               straight from a filter; A is read in place;
 *   tile      — indirectTile(): a kMicroRows x kMicroCols register
 *               tile (AVX2+FMA intrinsics, or its plain-C vectorizable
 *               8-wide twin) whose row i reads A through its own
 *               pointer. A plain GEMM is the tile with one tap whose
 *               pointers point straight into A (microkernelGemm()).
 *
 * Determinism contract: within a fixed backend, every entry point is
 * bit-exact at any thread count (workers own disjoint row blocks of C
 * and the per-element accumulation order is thread-independent).
 * The two backends may differ by FMA/association rounding and are
 * only required to agree to a documented ULP tolerance.
 */

#ifndef CFCONV_TENSOR_MICROKERNEL_H
#define CFCONV_TENSOR_MICROKERNEL_H

#include <vector>

#include "common/types.h"

namespace cfconv::tensor {

/** Register tile height (rows of A per tile). */
constexpr Index kMicroRows = 8;
/** Register tile width (columns of B per strip). */
constexpr Index kMicroCols = 8;

/** The available inner-kernel implementations, slowest first. */
enum class KernelBackend {
    Generic, ///< plain-C 8-wide tile (auto-vectorized)
    Avx2,    ///< AVX2+FMA intrinsics tile
};

/** @return a printable lowercase name ("generic", "avx2"). */
const char *kernelBackendName(KernelBackend backend);

/**
 * @return whether @p backend can run on this build/CPU (generic always
 * can; avx2 needs both the compiled-in TU and CPUID support for AVX2
 * and FMA).
 */
bool kernelBackendAvailable(KernelBackend backend);

/**
 * The backend all GEMM entry points currently use. Resolved once on
 * first call: CFCONV_KERNEL=avx2|generic when set (falling back to
 * generic with a warning if avx2 is unavailable; any other value is
 * fatal), otherwise avx2 when available, else generic. The selection is
 * logged once.
 */
KernelBackend activeKernelBackend();

/** Printable name of activeKernelBackend(); for bench WALL lines. */
const char *activeKernelBackendName();

/**
 * Force @p backend for subsequent GEMM calls (tests and benches).
 * Fatal if the backend is unavailable on this build/CPU.
 */
void setKernelBackend(KernelBackend backend);

/** Undo setKernelBackend(): back to the env/CPUID resolution. */
void resetKernelBackend();

/**
 * C (row-major, leading dimension @p ldc) = A (m x k, leading dimension
 * @p lda) * B (k x n, leading dimension @p ldb), or C += A * B when
 * @p accumulate, using the active backend. This is the raw driver under
 * gemm(); use that unless operating on borrowed buffers (the
 * simulators' staged shared-memory chunks do). It is indirectTile()
 * with one k-deep tap: each element is one chain over ascending p,
 * started from zero or, when accumulating, from C, so a GEMM split
 * along k into accumulating calls returns the unsplit bytes.
 */
void microkernelGemm(Index m, Index n, Index k, const float *a,
                     Index lda, const float *b, Index ldb, float *c,
                     Index ldc, bool accumulate);

/**
 * B in the order indirectTile() reads it: divCeil(n, kMicroCols) column
 * strips, strip s a contiguous k x kMicroCols row-major panel at offset
 * s * k * kMicroCols, zero past column n. Element (r, j) of the k x n
 * B, k = rows.size(), is base[rows[r] + j * col_stride], so B can be a
 * row-major matrix (rows[r] = r * ldb, col_stride 1) or a filter read in
 * place (rows[r] the offset of one lowered column, col_stride the
 * output-channel stride).
 */
std::vector<float> packColumnStrips(const float *base,
                                    const std::vector<Index> &rows,
                                    Index n, Index col_stride);

/**
 * The pointer-table micro-kernel (Dukhan's indirect GEMM): one
 * kMicroRows x kMicroCols C tile, held in registers across all taps,
 *
 *     C[i][j] (+)= sum over t < taps, p < depth of
 *                  rows[t * ld + i][p] * b_panel[(t * depth + p) * 8 + j]
 *
 * accumulated in ascending (t, p) order from zero, or from C when
 * @p accumulate: one FMA per step on avx2, one multiply and one add on
 * generic. Every element therefore holds the bytes microkernelGemm()
 * gives for the same lowered row against the same B. rows[t * ld + i]
 * addresses the @p depth contiguous values row i reads at tap t;
 * @p b_panel is one strip of packColumnStrips(). C[i][j] lives at
 * c[j * ldc + i], each column's rows contiguous, as NCHW holds one
 * channel of consecutive pixels.
 */
void indirectTile(Index taps, Index depth, const float *const *rows,
                  Index ld, const float *b_panel, float *c, Index ldc,
                  bool accumulate);

/** dst[i] += scale * src[i] over @p n contiguous floats (SAXPY). */
void vectorAxpyInto(float *dst, const float *src, float scale, Index n);

} // namespace cfconv::tensor

#endif // CFCONV_TENSOR_MICROKERNEL_H
