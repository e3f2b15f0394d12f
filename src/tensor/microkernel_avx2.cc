/**
 * @file
 * AVX2+FMA inner kernels. This is the only translation unit built with
 * -mavx2 -mfma (via CFCONV_ENABLE_AVX2); nothing here runs unless
 * runtime CPUID dispatch confirmed the instruction sets, so the rest of
 * the library stays baseline-x86-64 clean. When the build option is
 * off (or the compiler lacks the flags) the same symbols compile to
 * panicking stubs behind avx2CompiledIn() == false.
 */

#include "tensor/microkernel_kernels.h"

#include "common/logging.h"

#if defined(CFCONV_AVX2_BUILD)

#include <immintrin.h>

namespace cfconv::tensor::detail {

bool
avx2CompiledIn()
{
    return true;
}

namespace {

/**
 * Transposes the 8x8 tile in r0..r7 in place: register i holding row i
 * comes out as register i holding column i, and back, as the transpose
 * is its own inverse. A call would spill the eight accumulators, so it
 * is always inlined.
 */
[[gnu::always_inline]] inline void
transpose8x8(__m256 &r0, __m256 &r1, __m256 &r2, __m256 &r3, __m256 &r4,
             __m256 &r5, __m256 &r6, __m256 &r7)
{
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    r0 = _mm256_permute2f128_ps(s0, s4, 0x20);
    r1 = _mm256_permute2f128_ps(s1, s5, 0x20);
    r2 = _mm256_permute2f128_ps(s2, s6, 0x20);
    r3 = _mm256_permute2f128_ps(s3, s7, 0x20);
    r4 = _mm256_permute2f128_ps(s0, s4, 0x31);
    r5 = _mm256_permute2f128_ps(s1, s5, 0x31);
    r6 = _mm256_permute2f128_ps(s2, s6, 0x31);
    r7 = _mm256_permute2f128_ps(s3, s7, 0x31);
}

} // namespace

void
indirectTileAvx2(Index taps, Index depth, const float *const *rows,
                 Index ld, const float *b_panel, float *c, Index ldc,
                 bool accumulate)
{
    // One ymm accumulator per tile row; with the B row vector and the
    // broadcast lane this uses 10 of the 16 ymm registers. Each row's
    // A operand is read through its own pointer for every tap.
    __m256 c0, c1, c2, c3, c4, c5, c6, c7;
    if (accumulate) {
        c0 = _mm256_loadu_ps(c + 0 * ldc);
        c1 = _mm256_loadu_ps(c + 1 * ldc);
        c2 = _mm256_loadu_ps(c + 2 * ldc);
        c3 = _mm256_loadu_ps(c + 3 * ldc);
        c4 = _mm256_loadu_ps(c + 4 * ldc);
        c5 = _mm256_loadu_ps(c + 5 * ldc);
        c6 = _mm256_loadu_ps(c + 6 * ldc);
        c7 = _mm256_loadu_ps(c + 7 * ldc);
        transpose8x8(c0, c1, c2, c3, c4, c5, c6, c7);
    } else {
        c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = _mm256_setzero_ps();
    }
    const float *b = b_panel;
    for (Index t = 0; t < taps; ++t, rows += ld) {
        const float *a0 = rows[0];
        const float *a1 = rows[1];
        const float *a2 = rows[2];
        const float *a3 = rows[3];
        const float *a4 = rows[4];
        const float *a5 = rows[5];
        const float *a6 = rows[6];
        const float *a7 = rows[7];
        const auto step = [&](Index p) {
            const __m256 bv = _mm256_loadu_ps(b + p * 8);
            c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + p), bv, c0);
            c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + p), bv, c1);
            c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + p), bv, c2);
            c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + p), bv, c3);
            c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a4 + p), bv, c4);
            c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a5 + p), bv, c5);
            c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a6 + p), bv, c6);
            c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a7 + p), bv, c7);
        };
        // Unrolled by four so the eight pointer increments amortize,
        // and a straight-line tail (the C_I = 3 stem is all tail); each
        // accumulator still sees ascending p.
        Index p = 0;
        for (; p + 4 <= depth; p += 4) {
            step(p);
            step(p + 1);
            step(p + 2);
            step(p + 3);
        }
        switch (depth - p) {
          case 3:
            step(p);
            step(p + 1);
            step(p + 2);
            break;
          case 2:
            step(p);
            step(p + 1);
            break;
          case 1:
            step(p);
            break;
        }
        b += depth * 8;
    }
    // Column j goes out as one 8-row vector.
    transpose8x8(c0, c1, c2, c3, c4, c5, c6, c7);
    _mm256_storeu_ps(c + 0 * ldc, c0);
    _mm256_storeu_ps(c + 1 * ldc, c1);
    _mm256_storeu_ps(c + 2 * ldc, c2);
    _mm256_storeu_ps(c + 3 * ldc, c3);
    _mm256_storeu_ps(c + 4 * ldc, c4);
    _mm256_storeu_ps(c + 5 * ldc, c5);
    _mm256_storeu_ps(c + 6 * ldc, c6);
    _mm256_storeu_ps(c + 7 * ldc, c7);
}

void
axpyIntoAvx2(float *dst, const float *src, float scale, Index n)
{
    const __m256 v = _mm256_set1_ps(scale);
    Index i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i,
                         _mm256_fmadd_ps(v, _mm256_loadu_ps(src + i),
                                         _mm256_loadu_ps(dst + i)));
    for (; i < n; ++i)
        dst[i] += scale * src[i];
}

} // namespace cfconv::tensor::detail

#else // !CFCONV_AVX2_BUILD

namespace cfconv::tensor::detail {

bool
avx2CompiledIn()
{
    return false;
}

// Dispatch never routes here when avx2CompiledIn() is false; reaching a
// stub is an internal invariant violation, not a user error.

void
indirectTileAvx2(Index, Index, const float *const *, Index, const float *,
                 float *, Index, bool)
{
    panic("AVX2 kernel called but not compiled in");
}

void
axpyIntoAvx2(float *, const float *, float, Index)
{
    panic("AVX2 kernel called but not compiled in");
}

} // namespace cfconv::tensor::detail

#endif // CFCONV_AVX2_BUILD
