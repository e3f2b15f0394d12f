#include "tensor/microkernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "tensor/microkernel_kernels.h"

namespace cfconv::tensor {

namespace {

constexpr Index MR = kMicroRows;
constexpr Index NR = kMicroCols;

/** Below this much work (flops, or floats packed) the pool dispatch
 *  overhead dominates. */
constexpr Index kSerialWork = 1 << 15;

bool
cpuHasAvx2Fma()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

/**
 * The env/CPUID backend, for first use and resetKernelBackend() alike:
 * CFCONV_KERNEL when set, else avx2 when available, else generic. An
 * avx2 request this build/CPU cannot run warns and falls back to
 * generic; any other value is fatal.
 */
KernelBackend
resolveBackend()
{
    const KernelBackend best = kernelBackendAvailable(KernelBackend::Avx2)
                                   ? KernelBackend::Avx2
                                   : KernelBackend::Generic;
    const char *env = std::getenv("CFCONV_KERNEL");
    if (env == nullptr || env[0] == '\0')
        return best;
    const std::string want(env);
    if (want == "generic")
        return KernelBackend::Generic;
    CFCONV_FATAL_IF(want != "avx2",
                    "CFCONV_KERNEL=%s is not a kernel backend (supported: "
                    "avx2, generic)",
                    env);
    if (best != KernelBackend::Avx2)
        warn("CFCONV_KERNEL=avx2 unavailable on this build/CPU; using "
             "generic");
    return best;
}

/** Active backend; -1 until first resolution. */
std::atomic<int> g_active{-1};
std::once_flag g_resolve_once;

/**
 * Plain-C twin of indirectTileAvx2 for the generic backend: one multiply
 * and one add per step, in ascending (t, p) order, over a fixed 8-wide
 * inner loop the compiler can vectorize without ISA-specific flags.
 */
void
indirectTileGeneric(Index taps, Index depth, const float *const *rows,
                    Index ld, const float *b_panel, float *c, Index ldc,
                    bool accumulate)
{
    float acc[MR][NR] = {};
    if (accumulate)
        for (Index i = 0; i < MR; ++i)
            for (Index j = 0; j < NR; ++j)
                acc[i][j] = c[j * ldc + i];
    const float *b = b_panel;
    for (Index t = 0; t < taps; ++t, rows += ld) {
        for (Index p = 0; p < depth; ++p, b += NR) {
            for (Index i = 0; i < MR; ++i) {
                const float av = rows[i][p];
                for (Index j = 0; j < NR; ++j)
                    acc[i][j] += av * b[j];
            }
        }
    }
    for (Index j = 0; j < NR; ++j)
        for (Index i = 0; i < MR; ++i)
            c[j * ldc + i] = acc[i][j];
}

} // namespace

const char *
kernelBackendName(KernelBackend backend)
{
    switch (backend) {
      case KernelBackend::Generic:
        return "generic";
      case KernelBackend::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
kernelBackendAvailable(KernelBackend backend)
{
    if (backend == KernelBackend::Avx2)
        return detail::avx2CompiledIn() && cpuHasAvx2Fma();
    return true;
}

KernelBackend
activeKernelBackend()
{
    std::call_once(g_resolve_once, [] {
        const KernelBackend backend = resolveBackend();
        inform("gemm micro-kernel backend: %s", kernelBackendName(backend));
        g_active.store(static_cast<int>(backend), std::memory_order_relaxed);
    });
    return static_cast<KernelBackend>(
        g_active.load(std::memory_order_relaxed));
}

const char *
activeKernelBackendName()
{
    return kernelBackendName(activeKernelBackend());
}

void
setKernelBackend(KernelBackend backend)
{
    CFCONV_FATAL_IF(!kernelBackendAvailable(backend),
                    "setKernelBackend: %s backend unavailable on this "
                    "build/CPU",
                    kernelBackendName(backend));
    activeKernelBackend(); // force the one-time resolution/log first
    g_active.store(static_cast<int>(backend), std::memory_order_relaxed);
}

void
resetKernelBackend()
{
    activeKernelBackend(); // force the one-time resolution/log first
    g_active.store(static_cast<int>(resolveBackend()),
                   std::memory_order_relaxed);
}

void
microkernelGemm(Index m, Index n, Index k, const float *a, Index lda,
                const float *b, Index ldb, float *c, Index ldc,
                bool accumulate)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        // No products exist: overwrite mode zeroes C, accumulate keeps it.
        if (!accumulate)
            for (Index i = 0; i < m; ++i)
                std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
        return;
    }
    // The identity producer: one tap of depth k whose row pointers
    // point straight into A, against B packed once into strips.
    std::vector<Index> b_rows(static_cast<size_t>(k));
    for (Index p = 0; p < k; ++p)
        b_rows[static_cast<size_t>(p)] = p * ldb;
    const std::vector<float> strips = packColumnStrips(b, b_rows, n, 1);

    // Workers own disjoint MR-row blocks of C and each element is one
    // unbroken chain over p, so the bytes are thread-independent.
    auto computeBlocks = [&](Index ib0, Index ib1) {
        const float *rows[MR];
        float tile[MR * NR] = {};
        for (Index ib = ib0; ib < ib1; ++ib) {
            const Index i0 = ib * MR;
            const Index mr = std::min(MR, m - i0);
            // Rows past m re-read the last row; their sums are never
            // stored.
            for (Index i = 0; i < MR; ++i)
                rows[i] = a + (i0 + std::min(i, mr - 1)) * lda;
            for (Index j0 = 0; j0 < n; j0 += NR) {
                const Index nr = std::min(NR, n - j0);
                float *cp = c + i0 * ldc + j0;
                // The tile holds column jj's rows contiguously; lanes
                // past the edge of C start at zero.
                if (accumulate) {
                    std::fill(tile, tile + MR * NR, 0.0f);
                    for (Index ii = 0; ii < mr; ++ii)
                        for (Index jj = 0; jj < nr; ++jj)
                            tile[jj * MR + ii] = cp[ii * ldc + jj];
                }
                indirectTile(1, k, rows, MR, strips.data() + j0 * k, tile,
                             MR, accumulate);
                for (Index ii = 0; ii < mr; ++ii)
                    for (Index jj = 0; jj < nr; ++jj)
                        cp[ii * ldc + jj] = tile[jj * MR + ii];
            }
        }
    };
    const Index m_blocks = divCeil(m, MR);
    if (2 * m * n * k < kSerialWork)
        computeBlocks(0, m_blocks);
    else
        parallel::parallelFor(0, m_blocks, 2, computeBlocks);
}

std::vector<float>
packColumnStrips(const float *base, const std::vector<Index> &rows, Index n,
                 Index col_stride)
{
    const Index k = static_cast<Index>(rows.size());
    const Index strips = divCeil(n, NR);
    // Value-initialized, so the columns past n stay zero.
    std::vector<float> packed(static_cast<size_t>(strips * k * NR));
    const Index grain =
        std::max<Index>(1, kSerialWork / std::max<Index>(1, k * NR));
    parallel::parallelFor(0, strips, grain, [&](Index s0, Index s1) {
        for (Index s = s0; s < s1; ++s) {
            const Index valid = std::min(NR, n - s * NR);
            const float *cols = base + s * NR * col_stride;
            float *dst = packed.data() + s * k * NR;
            for (Index r = 0; r < k; ++r, dst += NR)
                for (Index j = 0; j < valid; ++j)
                    dst[j] = cols[rows[static_cast<size_t>(r)] +
                                  j * col_stride];
        }
    });
    return packed;
}

void
indirectTile(Index taps, Index depth, const float *const *rows, Index ld,
             const float *b_panel, float *c, Index ldc, bool accumulate)
{
    if (activeKernelBackend() == KernelBackend::Avx2)
        detail::indirectTileAvx2(taps, depth, rows, ld, b_panel, c, ldc,
                                 accumulate);
    else
        indirectTileGeneric(taps, depth, rows, ld, b_panel, c, ldc,
                            accumulate);
}

void
vectorAxpyInto(float *dst, const float *src, float scale, Index n)
{
    if (activeKernelBackend() == KernelBackend::Avx2) {
        detail::axpyIntoAvx2(dst, src, scale, n);
        return;
    }
    for (Index i = 0; i < n; ++i)
        dst[i] += scale * src[i];
}

} // namespace cfconv::tensor
