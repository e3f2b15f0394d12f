/**
 * @file
 * Seeded synthetic traffic for the request-level serving simulator:
 * deterministic arrival-time streams over a mixed model zoo. Three
 * generator families cover the shapes production serving actually
 * sees — memoryless load (Poisson), flash crowds (a two-state
 * Markov-modulated Poisson process whose bursts run at 8x the mean
 * rate for 10% of the time, 20 ms each on average), and slow daily
 * swings (a sinusoidally modulated rate, generated by thinning). The
 * burst shape is fixed; only the mean rate varies. Every stream
 * is a pure function of its TrafficSpec: generation is strictly
 * sequential over one SplitMix64 sequence, so the same spec yields
 * the same byte-for-byte request list at any thread count — the
 * foundation of the serving layer's determinism contract.
 */

#ifndef CFCONV_SERVE_WORKLOAD_H
#define CFCONV_SERVE_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace cfconv::serve {

/** One inference request: a single sample of one model class. The
 *  dynamic batcher is what groups requests into batched model runs. */
struct Request
{
    Index id = 0;              ///< arrival ordinal, 0-based
    double arrivalSeconds = 0; ///< simulated arrival time
    Index classIdx = 0;        ///< index into the scenario's ModelMix
};

/** Arrival-process family of a traffic stream. */
enum class ArrivalKind {
    Poisson, ///< homogeneous Poisson: exponential inter-arrivals
    Bursty,  ///< two-state MMPP: quiet baseline with flash bursts
    Diurnal, ///< sinusoidally modulated rate (thinning)
};

/** Stable lowercase name ("poisson", "bursty", "diurnal"). */
const char *arrivalKindName(ArrivalKind kind);

/** Parse an arrival-kind name (the bench `stream=` argument);
 *  INVALID_ARGUMENT listing the valid names on a miss. */
StatusOr<ArrivalKind> parseArrivalKind(const std::string &name);

/** Full description of one synthetic traffic stream. */
struct TrafficSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Long-run mean arrival rate (requests / simulated second). */
    double ratePerSecond = 1000.0;
    /** Generation window [0, horizon); requests in flight at the
     *  horizon still drain (the simulator runs to completion). */
    double horizonSeconds = 1.0;
    std::uint64_t seed = 1;
    /**
     * Per-class mix weights (normalized internally). Empty = every
     * request is class 0. The serving simulator fills this from its
     * ModelMix when the caller leaves it empty.
     */
    std::vector<double> classWeights;

    /** Diurnal: modulation period of the rate sinusoid. */
    double diurnalPeriodSeconds = 1.0;
    /** Diurnal: modulation depth in [0, 1): rate(t) swings between
     *  rate*(1-depth) and rate*(1+depth). */
    double diurnalDepth = 0.8;
};

/**
 * Generate the full arrival list of @p spec, sorted by arrival time,
 * ids dense from 0. Deterministic for a given spec (see file
 * comment). Fatal on nonsensical specs (non-positive rate/horizon,
 * diurnalDepth outside [0, 1)).
 */
std::vector<Request> generateArrivals(const TrafficSpec &spec);

} // namespace cfconv::serve

#endif // CFCONV_SERVE_WORKLOAD_H
