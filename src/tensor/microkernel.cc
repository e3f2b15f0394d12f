#include "tensor/microkernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
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

/** Below this many MACs the pool dispatch overhead dominates. */
constexpr Index kSerialMacThreshold = 1 << 15;

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

using PanelKernel = void (*)(Index kc, const float *a_panel,
                             const float *b_panel, float *c, Index ldc,
                             bool load_c);

/**
 * Plain-C twin of the AVX2 panel kernel: same packed operands, same
 * ascending-p accumulation order, fixed 8-wide inner loop the compiler
 * can vectorize without any ISA-specific flags.
 */
void
gemmPanelGeneric(Index kc, const float *a_panel, const float *b_panel,
                 float *c, Index ldc, bool load_c)
{
    float acc[MR][NR];
    if (load_c) {
        for (Index i = 0; i < MR; ++i)
            for (Index j = 0; j < NR; ++j)
                acc[i][j] = c[i * ldc + j];
    } else {
        for (Index i = 0; i < MR; ++i)
            for (Index j = 0; j < NR; ++j)
                acc[i][j] = 0.0f;
    }
    for (Index p = 0; p < kc; ++p) {
        const float *a = a_panel + p * MR;
        const float *b = b_panel + p * NR;
        for (Index i = 0; i < MR; ++i) {
            const float av = a[i];
            for (Index j = 0; j < NR; ++j)
                acc[i][j] += av * b[j];
        }
    }
    for (Index i = 0; i < MR; ++i)
        for (Index j = 0; j < NR; ++j)
            c[i * ldc + j] = acc[i][j];
}

/**
 * Plain-C twin of indirectTileAvx2 for the generic backend: one multiply
 * and one add per step, in the same (t, p) order as gemmPanelGeneric.
 */
void
indirectTileGeneric(Index taps, Index depth, const float *const *rows,
                    Index ld, const float *b_panel, float *c, Index ldc)
{
    float acc[MR][NR] = {};
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

/**
 * Cache-blocked packed GEMM driver of both backends. B is packed once
 * into NR-column panels per KC block (pure
 * relayout, so parallel packing is trivially deterministic); each
 * worker owns disjoint MR-row blocks of C, packs the matching A
 * micro-panel thread-locally, and walks the KC panels in serial order,
 * so per-element accumulation is identical at any thread count.
 */
void
packedGemm(Index m, Index n, Index k, const float *a, Index lda,
           const float *b, Index ldb, float *c, Index ldc,
           bool accumulate, PanelKernel kernel)
{
    const Index kc_max = kPanelK;
    const Index n_strips = divCeil(n, NR);
    const Index packed_n = n_strips * NR;

    // Panel-major B packing: the KC block starting at row p0 occupies
    // [p0 * packed_n, (p0 + kc) * packed_n); within it, column strip s
    // is a contiguous kc x NR micro-panel (zero-padded past column n).
    std::vector<float> b_pack(static_cast<size_t>(packed_n * k));
    const bool serial = 2 * m * n * k < kSerialMacThreshold;
    auto packStrips = [&](Index s0, Index s1) {
        for (Index s = s0; s < s1; ++s) {
            for (Index p0 = 0; p0 < k; p0 += kc_max) {
                const Index kc = std::min(kc_max, k - p0);
                float *dst =
                    b_pack.data() + p0 * packed_n + s * kc * NR;
                for (Index p = 0; p < kc; ++p) {
                    const float *brow = b + (p0 + p) * ldb + s * NR;
                    const Index valid = std::min(NR, n - s * NR);
                    for (Index jj = 0; jj < valid; ++jj)
                        dst[p * NR + jj] = brow[jj];
                    for (Index jj = valid; jj < NR; ++jj)
                        dst[p * NR + jj] = 0.0f;
                }
            }
        }
    };

    const Index m_blocks = divCeil(m, MR);
    auto computeBlocks = [&](Index ib0, Index ib1) {
        static thread_local std::vector<float> a_pack;
        a_pack.resize(static_cast<size_t>(kc_max * MR));
        float c_tmp[MR * NR];
        for (Index ib = ib0; ib < ib1; ++ib) {
            const Index i0 = ib * MR;
            const Index mr = std::min(MR, m - i0);
            for (Index p0 = 0; p0 < k; p0 += kc_max) {
                const Index kc = std::min(kc_max, k - p0);
                for (Index p = 0; p < kc; ++p) {
                    const float *acol = a + i0 * lda + (p0 + p);
                    for (Index ii = 0; ii < MR; ++ii)
                        a_pack[static_cast<size_t>(p * MR + ii)] =
                            ii < mr ? acol[ii * lda] : 0.0f;
                }
                const bool load_c = accumulate || p0 > 0;
                for (Index s = 0; s < n_strips; ++s) {
                    const Index j0 = s * NR;
                    const Index nr = std::min(NR, n - j0);
                    const float *bp =
                        b_pack.data() + p0 * packed_n + s * kc * NR;
                    float *cp = c + i0 * ldc + j0;
                    if (mr == MR && nr == NR) {
                        kernel(kc, a_pack.data(), bp, cp, ldc, load_c);
                        continue;
                    }
                    // Edge tile: stage the valid C region in a full
                    // 8x8 scratch tile. The scratch round-trips fp32
                    // values exactly, so edge outputs see the same op
                    // sequence as interior ones.
                    if (load_c) {
                        std::memset(c_tmp, 0, sizeof(c_tmp));
                        for (Index ii = 0; ii < mr; ++ii)
                            for (Index jj = 0; jj < nr; ++jj)
                                c_tmp[ii * NR + jj] = cp[ii * ldc + jj];
                    }
                    kernel(kc, a_pack.data(), bp, c_tmp, NR, load_c);
                    for (Index ii = 0; ii < mr; ++ii)
                        for (Index jj = 0; jj < nr; ++jj)
                            cp[ii * ldc + jj] = c_tmp[ii * NR + jj];
                }
            }
        }
    };

    if (serial) {
        packStrips(0, n_strips);
        computeBlocks(0, m_blocks);
    } else {
        parallel::parallelFor(0, n_strips, 4, packStrips);
        parallel::parallelFor(0, m_blocks, 2, computeBlocks);
    }
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
    packedGemm(m, n, k, a, lda, b, ldb, c, ldc, accumulate,
               activeKernelBackend() == KernelBackend::Avx2
                   ? detail::gemmPanelAvx2
                   : gemmPanelGeneric);
}

std::vector<float>
packColumnStrips(const float *base, const std::vector<Index> &rows, Index n,
                 Index col_stride)
{
    const Index k = static_cast<Index>(rows.size());
    const Index strips = divCeil(n, NR);
    // Value-initialized, so the columns past n stay zero.
    std::vector<float> packed(static_cast<size_t>(strips * k * NR));
    parallel::parallelFor(0, strips, 1, [&](Index s0, Index s1) {
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
             const float *b_panel, float *c, Index ldc)
{
    if (activeKernelBackend() == KernelBackend::Avx2)
        detail::indirectTileAvx2(taps, depth, rows, ld, b_panel, c, ldc);
    else
        indirectTileGeneric(taps, depth, rows, ld, b_panel, c, ldc);
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
