/**
 * @file
 * Golden-parity suite for the micro-kernel GEMM subsystem: both
 * backends (avx2/generic) against the naive reference across awkward
 * shapes, accumulate and overwrite modes, at 1 and N threads.
 *
 * Tolerance contract: within a backend, results are bit-exact at any
 * thread count and under any K-blocking, and generic returns the naive
 * loop's bytes. Across backends (and for avx2 against the naive loop)
 * FMA contraction rounds each step once instead of twice, so parity
 * holds to kUlpSlack * eps * k absolute (operands are drawn from
 * [-1, 1), so partial sums are bounded by k).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "tensor/gemm.h"
#include "tensor/microkernel.h"

#include "../common/determinism.h"

namespace cfconv::tensor {
namespace {

/** ULP headroom multiplier of the cross-backend tolerance. */
constexpr float kUlpSlack = 16.0f;

float
parityTol(Index k)
{
    return kUlpSlack * FLT_EPSILON * static_cast<float>(k) + FLT_MIN;
}

/** Strictly sequential float reference; optionally C += A*B. */
Matrix
naiveGemm(const Matrix &a, const Matrix &b, const Matrix *base = nullptr)
{
    Matrix c(a.rows(), b.cols());
    for (Index i = 0; i < a.rows(); ++i)
        for (Index j = 0; j < b.cols(); ++j) {
            float acc = base != nullptr ? base->at(i, j) : 0.0f;
            for (Index p = 0; p < a.cols(); ++p)
                acc += a.at(i, p) * b.at(p, j);
            c.at(i, j) = acc;
        }
    return c;
}

void
expectParity(Index m, Index n, Index k, KernelBackend backend)
{
    Matrix a(m, k), b(k, n);
    a.fillRandom(static_cast<std::uint64_t>(m * 131 + n * 7 + k));
    b.fillRandom(static_cast<std::uint64_t>(m + n * 113 + k * 17));

    Matrix c(m, n);
    gemm(a, b, c);
    const Matrix ref = naiveGemm(a, b);
    EXPECT_LE(c.maxAbsDiff(ref), parityTol(k))
        << "overwrite " << m << "x" << n << "x" << k << " backend "
        << kernelBackendName(backend);

    Matrix acc(m, n);
    acc.fillRandom(99);
    const Matrix ref_acc = naiveGemm(a, b, &acc);
    microkernelGemm(m, n, k, a.data(), k, b.data(), n, acc.data(), n, true);
    EXPECT_LE(acc.maxAbsDiff(ref_acc), parityTol(k) + FLT_EPSILON)
        << "accumulate " << m << "x" << n << "x" << k << " backend "
        << kernelBackendName(backend);
}

constexpr Index kAwkward[] = {1, 7, 8, 9, 63, 64, 65, 131};

TEST(MicrokernelParity, AwkwardAxisSweep)
{
    forEachKernelBackend([](KernelBackend backend) {
        for (const Index v : kAwkward) {
            expectParity(v, 64, 64, backend);
            expectParity(64, v, 64, backend);
            expectParity(64, 64, v, backend);
        }
    });
}

TEST(MicrokernelParity, AwkwardCrossSweep)
{
    const Index sets[2][3] = {{1, 9, 65}, {7, 8, 131}};
    forEachKernelBackend([&](KernelBackend backend) {
        for (const auto &set : sets)
            for (const Index m : set)
                for (const Index n : set)
                    for (const Index k : set)
                        expectParity(m, n, k, backend);
    });
}

TEST(MicrokernelParity, GenericIsTheSequentialLoopBytes)
{
    // The generic tile takes one multiply and one add per step in
    // ascending p, from zero or from C: naiveGemm's loop exactly, so
    // its bytes have a reference independent of the tile. (avx2 fuses
    // each step into one FMA and keeps the tolerance above.)
    forEachKernelBackend([](KernelBackend backend) {
        if (backend != KernelBackend::Generic)
            return;
        for (const Index m : {1, 8, 9, 65})
            for (const Index n : {1, 7, 17, 64})
                for (const Index k : {1, 5, 131, 256, 257, 600}) {
                    Matrix a(m, k), b(k, n);
                    a.fillRandom(static_cast<std::uint64_t>(m + 3 * k));
                    b.fillRandom(static_cast<std::uint64_t>(n + 5 * k));
                    const size_t bytes = sizeof(float) * m * n;

                    Matrix c(m, n);
                    gemm(a, b, c);
                    EXPECT_EQ(std::memcmp(c.data(), naiveGemm(a, b).data(),
                                          bytes),
                              0)
                        << "overwrite " << m << "x" << n << "x" << k;

                    Matrix acc(m, n);
                    acc.fillRandom(static_cast<std::uint64_t>(m * n + k));
                    const Matrix want = naiveGemm(a, b, &acc);
                    microkernelGemm(m, n, k, a.data(), k, b.data(), n,
                                    acc.data(), n, true);
                    EXPECT_EQ(std::memcmp(acc.data(), want.data(), bytes), 0)
                        << "accumulate " << m << "x" << n << "x" << k;
                }
    });
}

TEST(MicrokernelParallel, BitExactAcrossThreadCounts)
{
    forEachKernelBackend([](KernelBackend backend) {
        Matrix a(131, 65), b(65, 63);
        a.fillRandom(1);
        b.fillRandom(2);
        const auto run = [&](Index threads) {
            ScopedThreads st(threads);
            Matrix c(131, 63);
            gemm(a, b, c);
            return c;
        };
        const Matrix serial = run(1);
        const Matrix par = run(4);
        EXPECT_EQ(std::memcmp(serial.data(), par.data(),
                              sizeof(float) * 131 * 63),
                  0)
            << "backend " << kernelBackendName(backend);
    });
}

TEST(MicrokernelParallel, AccumulateBitExactAcrossThreadCounts)
{
    forEachKernelBackend([](KernelBackend backend) {
        Matrix a(65, 131), b(131, 65);
        a.fillRandom(3);
        b.fillRandom(4);
        const auto run = [&](Index threads) {
            ScopedThreads st(threads);
            Matrix c(65, 65);
            c.fillRandom(5);
            microkernelGemm(65, 65, 131, a.data(), 131, b.data(), 65,
                            c.data(), 65, true);
            return c;
        };
        const Matrix serial = run(1);
        const Matrix par = run(4);
        EXPECT_EQ(std::memcmp(serial.data(), par.data(),
                              sizeof(float) * 65 * 65),
                  0)
            << "backend " << kernelBackendName(backend);
    });
}

TEST(MicrokernelParity, KBlockingIsBitExactOnPackedBackends)
{
    // Each element of gemm() is one chain over ascending p, and an
    // accumulating call seeds its tile from C, whose fp32 partial sums
    // round-trip exactly. So the same GEMM split into tile_k-deep calls
    // (the first overwriting, the rest accumulating) returns its bytes,
    // whatever the depth and wherever the splits fall.
    constexpr Index m = 23, n = 17, k = 600;
    Matrix a(m, k), b(k, n);
    a.fillRandom(6);
    b.fillRandom(7);
    forEachKernelBackend([&](KernelBackend backend) {
        Matrix ref(m, n);
        gemm(a, b, ref);
        for (const Index tile_k :
             {Index{1}, Index{5}, Index{64}, Index{256}, Index{257}}) {
            Matrix c(m, n);
            for (Index p0 = 0; p0 < k; p0 += tile_k)
                microkernelGemm(m, n, std::min(tile_k, k - p0),
                                a.data() + p0, k, b.data() + p0 * n, n,
                                c.data(), n, p0 > 0);
            EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                                  sizeof(float) * m * n),
                      0)
                << "backend " << kernelBackendName(backend) << " tile_k "
                << tile_k;
        }
    });
}

TEST(MicrokernelDispatch, NamesAndAvailability)
{
    EXPECT_STREQ(kernelBackendName(KernelBackend::Generic), "generic");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx2), "avx2");
    EXPECT_TRUE(kernelBackendAvailable(KernelBackend::Generic));
    EXPECT_NE(activeKernelBackendName(), nullptr);
}

TEST(MicrokernelDispatch, SetAndResetRoundTrip)
{
    const KernelBackend resolved = activeKernelBackend();
    forEachKernelBackend([](KernelBackend backend) {
        EXPECT_EQ(activeKernelBackend(), backend);
    });
    EXPECT_EQ(activeKernelBackend(), resolved);
}

TEST(MicrokernelDispatch, UnknownKernelValueNamesSupportedBackends)
{
    // The one resolver serves resetKernelBackend() as it serves first
    // use, so a bad override is rejected here as it is at startup.
    const char *env = std::getenv("CFCONV_KERNEL");
    const std::string saved = env != nullptr ? env : "";
    for (const char *bad : {"scalar", "sse"}) {
        setenv("CFCONV_KERNEL", bad, 1);
        try {
            resetKernelBackend();
            ADD_FAILURE() << "CFCONV_KERNEL=" << bad << " was accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "(supported: avx2, generic)"),
                      std::string::npos)
                << e.what();
        }
    }
    if (env != nullptr)
        setenv("CFCONV_KERNEL", saved.c_str(), 1);
    else
        unsetenv("CFCONV_KERNEL");
    resetKernelBackend();
}

TEST(MicrokernelHelpers, AxpyParityPerBackend)
{
    constexpr Index kLen = 131;
    std::vector<float> x(kLen);
    for (Index i = 0; i < kLen; ++i)
        x[static_cast<size_t>(i)] =
            0.25f * static_cast<float>((i * 7) % 13) - 1.0f;
    forEachKernelBackend([&](KernelBackend) {
        std::vector<float> axp(kLen, 0.0f);
        vectorAxpyInto(axp.data(), x.data(), 2.0f, kLen);
        for (Index i = 0; i < kLen; ++i)
            EXPECT_NEAR(axp[static_cast<size_t>(i)],
                        2.0f * x[static_cast<size_t>(i)], 1e-6f);
    });
}

} // namespace
} // namespace cfconv::tensor
