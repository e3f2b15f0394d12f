/** @file Tests for the seeded arrival generators (serve/workload):
 *  determinism of every stream across thread counts, Poisson mean-rate
 *  agreement, bursty burst structure, diurnal modulation, and the
 *  class-mix weighting. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "serve/workload.h"

namespace cfconv::serve {
namespace {

bool
sameArrivals(const std::vector<Request> &a,
             const std::vector<Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].classIdx != b[i].classIdx ||
            a[i].arrivalSeconds != b[i].arrivalSeconds)
            return false;
    return true;
}

TEST(Arrivals, DeterministicPerSeedAcrossThreadCounts)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        TrafficSpec spec;
        spec.kind = kind;
        spec.ratePerSecond = 2000;
        spec.horizonSeconds = 0.5;
        spec.seed = 7;
        spec.classWeights = {0.5, 0.3, 0.2};

        parallel::setThreads(1);
        const auto serial = generateArrivals(spec);
        parallel::setThreads(4);
        const auto parallel4 = generateArrivals(spec);
        parallel::setThreads(0);
        const auto again = generateArrivals(spec);

        EXPECT_TRUE(sameArrivals(serial, parallel4))
            << arrivalKindName(kind);
        EXPECT_TRUE(sameArrivals(serial, again))
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, DifferentSeedsDifferentStreams)
{
    TrafficSpec spec;
    spec.seed = 1;
    const auto a = generateArrivals(spec);
    spec.seed = 2;
    const auto b = generateArrivals(spec);
    EXPECT_FALSE(sameArrivals(a, b));
}

TEST(Arrivals, SortedWithDenseIdsInsideHorizon)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        TrafficSpec spec;
        spec.kind = kind;
        spec.ratePerSecond = 500;
        spec.horizonSeconds = 0.25;
        const auto arrivals = generateArrivals(spec);
        ASSERT_FALSE(arrivals.empty()) << arrivalKindName(kind);
        for (size_t i = 0; i < arrivals.size(); ++i) {
            EXPECT_EQ(arrivals[i].id, static_cast<Index>(i));
            EXPECT_GE(arrivals[i].arrivalSeconds, 0.0);
            EXPECT_LT(arrivals[i].arrivalSeconds, spec.horizonSeconds);
            if (i > 0) {
                EXPECT_GE(arrivals[i].arrivalSeconds,
                          arrivals[i - 1].arrivalSeconds);
            }
        }
    }
}

TEST(Arrivals, PoissonHitsTheMeanRate)
{
    TrafficSpec spec;
    spec.ratePerSecond = 1000;
    spec.horizonSeconds = 10.0; // expect ~10000 arrivals, sigma ~100
    spec.seed = 11;
    const auto n = static_cast<double>(generateArrivals(spec).size());
    const double expect = spec.ratePerSecond * spec.horizonSeconds;
    EXPECT_NEAR(n, expect, 5.0 * std::sqrt(expect));
}

TEST(Arrivals, BurstyMatchesLongRunRateAndActuallyBursts)
{
    TrafficSpec spec;
    spec.kind = ArrivalKind::Bursty;
    spec.ratePerSecond = 1000;
    spec.horizonSeconds = 10.0;
    spec.seed = 3;
    const auto arrivals = generateArrivals(spec);
    const double expect = spec.ratePerSecond * spec.horizonSeconds;
    // MMPP arrival counts are over-dispersed relative to Poisson; the
    // long-run mean still holds, just with a wider band.
    EXPECT_NEAR(static_cast<double>(arrivals.size()), expect,
                0.25 * expect);

    // Burstiness: the peak 10 ms window should far exceed the mean
    // 10 ms load (bursts run at 8x the mean rate).
    const double window = 10e-3;
    const double meanPerWindow =
        spec.ratePerSecond * window; // ~10 requests
    size_t lo = 0;
    size_t peak = 0;
    for (size_t hi = 0; hi < arrivals.size(); ++hi) {
        while (arrivals[hi].arrivalSeconds -
                   arrivals[lo].arrivalSeconds >
               window)
            ++lo;
        peak = std::max(peak, hi - lo + 1);
    }
    EXPECT_GT(static_cast<double>(peak), 3.0 * meanPerWindow);
}

TEST(Arrivals, DiurnalModulatesTheRate)
{
    TrafficSpec spec;
    spec.kind = ArrivalKind::Diurnal;
    spec.ratePerSecond = 2000;
    spec.horizonSeconds = 4.0;
    spec.diurnalPeriodSeconds = 1.0;
    spec.diurnalDepth = 0.8;
    spec.seed = 5;
    const auto arrivals = generateArrivals(spec);

    // Rate peaks in the first half of each period and troughs in the
    // second (sin modulation): count arrivals by half-period.
    double first = 0;
    double second = 0;
    for (const auto &req : arrivals) {
        const double phase = std::fmod(req.arrivalSeconds,
                                       spec.diurnalPeriodSeconds);
        (phase < 0.5 * spec.diurnalPeriodSeconds ? first : second) +=
            1.0;
    }
    EXPECT_GT(first, 1.5 * second);
}

TEST(Arrivals, ClassWeightsShapeTheMix)
{
    TrafficSpec spec;
    spec.ratePerSecond = 2000;
    spec.horizonSeconds = 5.0;
    spec.seed = 9;
    spec.classWeights = {3.0, 1.0};
    const auto arrivals = generateArrivals(spec);
    ASSERT_GT(arrivals.size(), 1000u);
    double class0 = 0;
    for (const auto &req : arrivals) {
        ASSERT_GE(req.classIdx, 0);
        ASSERT_LT(req.classIdx, 2);
        if (req.classIdx == 0)
            class0 += 1.0;
    }
    const double frac = class0 / static_cast<double>(arrivals.size());
    EXPECT_NEAR(frac, 0.75, 0.05);
}

TEST(Arrivals, ParseArrivalKindRoundTripsAndRejects)
{
    for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::Bursty,
                             ArrivalKind::Diurnal}) {
        auto parsed = parseArrivalKind(arrivalKindName(kind));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), kind);
    }
    EXPECT_FALSE(parseArrivalKind("weekly").ok());
    EXPECT_FALSE(parseArrivalKind("").ok());
}

} // namespace
} // namespace cfconv::serve
