#include "serve/workload.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace cfconv::serve {

namespace {

/** Bursty: burst-state rate multiplier over the long-run mean. */
constexpr double kBurstMultiplier = 8.0;
/** Bursty: long-run fraction of time spent in the burst state.
 *  kBurstFraction * kBurstMultiplier < 1 keeps the quiet rate
 *  positive. */
constexpr double kBurstFraction = 0.1;
/** Bursty: mean dwell of one burst (exponential). The quiet dwell
 *  follows from kBurstFraction. */
constexpr double kMeanBurstSeconds = 20e-3;
static_assert(kBurstMultiplier > 1.0 &&
              kBurstFraction * kBurstMultiplier < 1.0);

/** Exponential variate with mean 1/@p rate. 1 - uniform() keeps the
 *  argument of log strictly positive. */
double
exponential(Rng &rng, double rate)
{
    return -std::log(1.0 - rng.uniform()) / rate;
}

/** Weighted class pick over the normalized @p cumulative weights. */
Index
pickClass(Rng &rng, const std::vector<double> &cumulative)
{
    if (cumulative.empty())
        return 0;
    const double u = rng.uniform();
    for (size_t i = 0; i < cumulative.size(); ++i)
        if (u < cumulative[i])
            return static_cast<Index>(i);
    return static_cast<Index>(cumulative.size() - 1);
}

std::vector<double>
cumulativeWeights(const TrafficSpec &spec)
{
    std::vector<double> cum;
    if (spec.classWeights.empty())
        return cum;
    double total = 0.0;
    for (double w : spec.classWeights) {
        CFCONV_FATAL_IF(w < 0.0,
                        "generateArrivals: negative class weight");
        total += w;
    }
    CFCONV_FATAL_IF(total <= 0.0,
                    "generateArrivals: class weights sum to zero");
    double running = 0.0;
    for (double w : spec.classWeights) {
        running += w / total;
        cum.push_back(running);
    }
    return cum;
}

void
validate(const TrafficSpec &spec)
{
    CFCONV_FATAL_IF(spec.ratePerSecond <= 0.0,
                    "generateArrivals: ratePerSecond must be > 0");
    CFCONV_FATAL_IF(spec.horizonSeconds <= 0.0,
                    "generateArrivals: horizonSeconds must be > 0");
    if (spec.kind == ArrivalKind::Diurnal) {
        CFCONV_FATAL_IF(spec.diurnalDepth < 0.0 ||
                            spec.diurnalDepth >= 1.0,
                        "generateArrivals: diurnalDepth must be in "
                        "[0, 1)");
        CFCONV_FATAL_IF(spec.diurnalPeriodSeconds <= 0.0,
                        "generateArrivals: diurnalPeriodSeconds must "
                        "be > 0");
    }
}

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Bursty:
        return "bursty";
      case ArrivalKind::Diurnal:
        return "diurnal";
    }
    return "?";
}

StatusOr<ArrivalKind>
parseArrivalKind(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "bursty")
        return ArrivalKind::Bursty;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    return invalidArgumentError(
        "unknown arrival stream \"%s\" (want poisson, bursty, or "
        "diurnal)",
        name.c_str());
}

std::vector<Request>
generateArrivals(const TrafficSpec &spec)
{
    validate(spec);
    Rng rng(hashCombine(spec.seed,
                        fnv1a(arrivalKindName(spec.kind))));
    const std::vector<double> cum = cumulativeWeights(spec);
    std::vector<Request> out;
    out.reserve(static_cast<size_t>(
        spec.ratePerSecond * spec.horizonSeconds * 1.25 + 16.0));

    const auto push = [&](double t) {
        Request r;
        r.id = static_cast<Index>(out.size());
        r.arrivalSeconds = t;
        r.classIdx = pickClass(rng, cum);
        out.push_back(r);
    };

    switch (spec.kind) {
      case ArrivalKind::Poisson: {
        double t = exponential(rng, spec.ratePerSecond);
        while (t < spec.horizonSeconds) {
            push(t);
            t += exponential(rng, spec.ratePerSecond);
        }
        break;
      }
      case ArrivalKind::Bursty: {
        // Two-state MMPP. The burst state runs at rate * multiplier;
        // the quiet rate is solved so the long-run mean stays at
        // ratePerSecond given the stationary burst fraction f:
        //   f * burst + (1 - f) * quiet = rate.
        const double f = kBurstFraction;
        const double burst_rate = spec.ratePerSecond * kBurstMultiplier;
        const double quiet_rate = spec.ratePerSecond *
                                  (1.0 - f * kBurstMultiplier) / (1.0 - f);
        const double mean_burst = kMeanBurstSeconds;
        const double mean_quiet = mean_burst * (1.0 - f) / f;
        bool in_burst = rng.uniform() < f; // stationary start
        double t = 0.0;
        double state_end = t + exponential(rng, 1.0 / (in_burst
                                                           ? mean_burst
                                                           : mean_quiet));
        while (t < spec.horizonSeconds) {
            const double rate = in_burst ? burst_rate : quiet_rate;
            const double next = t + exponential(rng, rate);
            if (next >= state_end) {
                // State flips before the candidate arrival; restart
                // the (memoryless) arrival clock in the new state.
                t = state_end;
                in_burst = !in_burst;
                state_end = t + exponential(
                                    rng, 1.0 / (in_burst ? mean_burst
                                                         : mean_quiet));
                continue;
            }
            t = next;
            if (t < spec.horizonSeconds)
                push(t);
        }
        break;
      }
      case ArrivalKind::Diurnal: {
        // Thinning (Lewis-Shedler): generate at the peak rate, accept
        // with probability rate(t) / peak.
        const double peak =
            spec.ratePerSecond * (1.0 + spec.diurnalDepth);
        const double two_pi = 6.283185307179586;
        double t = exponential(rng, peak);
        while (t < spec.horizonSeconds) {
            const double rate =
                spec.ratePerSecond *
                (1.0 + spec.diurnalDepth *
                           std::sin(two_pi * t /
                                    spec.diurnalPeriodSeconds));
            if (rng.uniform() < rate / peak)
                push(t);
            t += exponential(rng, peak);
        }
        break;
      }
    }
    return out;
}

} // namespace cfconv::serve
