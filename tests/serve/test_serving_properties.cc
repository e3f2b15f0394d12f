/** @file Properties of the serving simulator's event loop
 *  (serve/serving_sim): one pinned scenario per (primary, hedge)
 *  chaos outcome of a hedged launch, and a seeded sweep of boards,
 *  traffic, chaos rates and policies that must keep requests
 *  conserved, latency above the service floor and reruns
 *  byte-identical. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "models/model_zoo.h"
#include "serve/serving_sim.h"
#include "sim/report.h"

namespace cfconv::serve {
namespace {

ModelMix
tinyMix()
{
    return {{"alexnet", &models::alexnet, 3.0},
            {"zfnet", &models::zfnet, 1.0}};
}

/** Arms the fault injector for one scope and always disarms it, so a
 *  failing assertion cannot leak chaos into later tests. */
class ScopedFaults
{
  public:
    explicit ScopedFaults(const std::string &spec)
    {
        if (!spec.empty()) {
            EXPECT_TRUE(
                fault::FaultInjector::instance().configure(spec).ok())
                << spec;
        }
    }
    ~ScopedFaults() { fault::FaultInjector::instance().disarm(); }
    ScopedFaults(const ScopedFaults &) = delete;
    ScopedFaults &operator=(const ScopedFaults &) = delete;
};

/** Runs @p config on tinyMix under @p faults (empty = disarmed). */
ServingResult
runScenario(const ServingConfig &config, const TrafficSpec &traffic,
            const std::string &faults, const ModelMix &mix = tinyMix())
{
    const ScopedFaults armed(faults);
    ServingSimulator sim(config, mix);
    return sim.run(traffic);
}

/** FNV-1a of the record's JSON without the process-global metrics. */
std::string
recordDigest(const ServingResult &result)
{
    const std::string doc =
        sim::runRecordsJson({result.record}, sim::ReportMeta{});
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(doc.c_str())));
    return hex;
}

/** Bursty overload at 9000 req/s for 0.2 s with straggler hedging
 *  armed at the median from the first completed request. */
TrafficSpec
burstyTraffic()
{
    TrafficSpec traffic;
    traffic.kind = ArrivalKind::Bursty;
    traffic.ratePerSecond = 9000;
    traffic.horizonSeconds = 0.2;
    traffic.seed = 61;
    return traffic;
}

ServingConfig
hedgedBoard(std::vector<ChipSpec> chips)
{
    ServingConfig config;
    config.chips = std::move(chips);
    config.batch.maxBatch = 8;
    config.hedge.enabled = true;
    config.hedge.latencyPercentile = 0.5;
    config.hedge.minSamples = 1;
    return config;
}

struct OutcomePin
{
    Index completed, hedged, wins, losses, chipDowns;
    const char *digest;
};

void
expectPinned(const ServingResult &r, const OutcomePin &pin)
{
    EXPECT_EQ(r.offered, r.completed + r.shed);
    EXPECT_EQ(r.completed, pin.completed);
    EXPECT_EQ(r.hedgedBatches, pin.hedged);
    EXPECT_EQ(r.hedgeWins, pin.wins);
    EXPECT_EQ(r.hedgeLosses, pin.losses);
    EXPECT_EQ(r.chipDownEvents, pin.chipDowns);
    const auto &serving = r.record.resilience.serving;
    EXPECT_EQ(serving.hedgedBatches, r.hedgedBatches);
    EXPECT_EQ(serving.hedgeWins, r.hedgeWins);
    EXPECT_EQ(serving.hedgeLosses, r.hedgeLosses);
    EXPECT_EQ(recordDigest(r), pin.digest);
}

TEST(HedgeOutcomes, SavedByHedgeAndBothDownOnAHomogeneousBoard)
{
    // Equal chips tie every race, and a tie is a hedge loss, so the
    // one win is a batch whose primary went down and whose hedge
    // served it (down, up). hedged - wins - losses = 1 batch lost
    // both chips (down, down). The 3 losses are races the primary
    // finished first (up, up).
    const ServingResult r = runScenario(
        hedgedBoard(std::vector<ChipSpec>(4, ChipSpec{"tpu-v2"})),
        burstyTraffic(), "seed=1; serve.chip_down=0.05");
    expectPinned(r, {1030, 5, 1, 3, 11, "74444b7fe2ba935b"});
}

TEST(HedgeOutcomes, HedgeOnTheFasterChipWinsTheRace)
{
    // tpu-v2-512x512 has the higher peak, so it leads the dispatch
    // order and every hedge lands on gpu-v100, which serves alexnet
    // and zfnet faster at every bucket: with no faults every hedge is
    // a race the hedge wins (up, up).
    const ServingResult r = runScenario(
        hedgedBoard({ChipSpec{"tpu-v2-512x512"}, ChipSpec{"gpu-v100"}}),
        burstyTraffic(), "");
    expectPinned(r, {1030, 63, 63, 0, 0, "b37dd7d1f379a060"});
}

TEST(HedgeOutcomes, HedgeChipDownLeavesThePrimaryServing)
{
    // Same board with outages on gpu-v100 only. A two-chip board
    // hedges only when both chips are idle, so the primary is always
    // the fault-free tpu-v2-512x512; the hedge never loses a race, so
    // every loss is a hedge chip that went down at launch (up, down).
    const ServingResult r = runScenario(
        hedgedBoard({ChipSpec{"tpu-v2-512x512"}, ChipSpec{"gpu-v100"}}),
        burstyTraffic(), "seed=1; serve.chip_down@gpu-v100=0.3");
    expectPinned(r, {1030, 15, 10, 5, 8, "bb3d5060411c390f"});
}

/** Cheapest service time of class @p cls over every batch bucket on
 *  @p variant (fault-free; memoized across the sweep). */
double
serviceFloor(const std::string &variant, Index cls)
{
    static std::map<std::pair<std::string, Index>, double> floors;
    const auto key = std::make_pair(variant, cls);
    const auto it = floors.find(key);
    if (it != floors.end())
        return it->second;
    static BatchCostModel costs(tinyMix());
    const auto accelerator = sim::makeAccelerator(variant);
    double floor = -1.0;
    for (Index batch : {1, 2, 4, 8, 12, 16, 24, 32, 48, 64}) {
        const double seconds =
            costs.cost(*accelerator, cls, batch).seconds;
        floor = floor < 0.0 ? seconds : std::min(floor, seconds);
    }
    return floors[key] = floor;
}

/** One seeded point of the invariant sweep. */
struct SweepCase
{
    ServingConfig config;
    TrafficSpec traffic;
    std::string faults;
};

SweepCase
sweepCase(int index)
{
    Rng rng(hashCombine(0x5e77e, static_cast<std::uint64_t>(index)));
    SweepCase c;
    const auto chips = 1 + static_cast<Index>(rng.below(4));
    c.config.chips.clear();
    for (Index i = 0; i < chips; ++i)
        c.config.chips.push_back(
            ChipSpec{rng.below(2) == 0 ? "tpu-v2" : "gpu-v100"});
    c.config.batch.maxBatch = rng.below(2) == 0 ? 8 : 16;
    c.config.batch.maxWaitSeconds = rng.below(2) == 0 ? 0.0 : 2e-3;
    if (rng.below(3) == 0)
        c.config.admission.maxQueuePerClass = 32;
    c.config.chipOutageDetectionSeconds = rng.below(2) == 0 ? 2e-3 : 10e-3;

    // The three policies take every on/off combination three times
    // over 24 cases; fallbacks cover two thirds of them.
    c.config.breaker.enabled = (index & 1) != 0;
    c.config.breaker.failureThreshold = 2;
    c.config.breaker.openSeconds = 20e-3;
    c.config.degradation.enabled = (index & 2) != 0;
    c.config.degradation.stepUpPressure = 1.5;
    c.config.degradation.stepUpAfterSeconds = 2e-3;
    c.config.degradation.stepDownPressure = 0.5;
    c.config.degradation.stepDownAfterSeconds = 10e-3;
    c.config.hedge.enabled = (index & 4) != 0;
    c.config.hedge.latencyPercentile = rng.below(2) == 0 ? 0.5 : 0.95;
    c.config.hedge.minSamples = 4;
    if (index % 3 != 1)
        c.config.fallbackVariants = {"tpu-v3ish"};

    constexpr ArrivalKind kKinds[] = {
        ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal};
    constexpr double kRates[] = {500, 2000, 6000, 12000};
    c.traffic.kind = kKinds[index % 3];
    c.traffic.ratePerSecond = kRates[rng.below(4)];
    c.traffic.horizonSeconds = 0.1;
    c.traffic.seed = 100 + static_cast<std::uint64_t>(index);
    c.traffic.diurnalPeriodSeconds = 0.05;

    constexpr const char *kDownRates[] = {"0", "0.05", "0.1", "0.3"};
    const char *down = kDownRates[rng.below(4)];
    if (std::string(down) != "0")
        c.faults = "seed=" + std::to_string(index + 1) +
                   "; serve.chip_down=" + down;
    return c;
}

class ServingInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(ServingInvariants, HoldForASeededScenario)
{
    const SweepCase c = sweepCase(GetParam());
    ModelMix mix = tinyMix();
    mix[1].priority = 1; // a tier the brownout step can shed
    const ServingResult r = runScenario(c.config, c.traffic, c.faults, mix);

    EXPECT_GT(r.offered, 0);
    EXPECT_EQ(r.offered, r.completed + r.shed);
    Index admitted = 0;
    for (size_t cls = 0; cls < r.classes.size(); ++cls) {
        const ClassStats &s = r.classes[cls];
        SCOPED_TRACE(s.name);
        EXPECT_EQ(s.offered, s.completed + s.shed);
        EXPECT_EQ(s.admitted, s.completed);
        admitted += s.admitted;
        if (s.completed == 0)
            continue;
        double floor = -1.0;
        std::vector<std::string> variants = c.config.fallbackVariants;
        for (const ChipSpec &chip : c.config.chips)
            variants.push_back(chip.variant);
        for (const std::string &variant : variants) {
            const double f =
                serviceFloor(variant, static_cast<Index>(cls));
            floor = floor < 0.0 ? f : std::min(floor, f);
        }
        // Latency is (launch + service) - arrival, which rounds at the
        // scale of the arrival time, a few ulps of a second.
        EXPECT_GE(s.latency.min(), floor - 1e-12);
    }
    EXPECT_EQ(admitted, r.completed);
    EXPECT_LE(r.hedgeWins + r.hedgeLosses, r.hedgedBatches);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_LE(r.p95, r.p99);
    EXPECT_LE(r.p99, r.p999);

    const ServingResult again =
        runScenario(c.config, c.traffic, c.faults, mix);
    EXPECT_EQ(sim::runRecordsJson({r.record}, sim::ReportMeta{}),
              sim::runRecordsJson({again.record}, sim::ReportMeta{}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ServingInvariants, ::testing::Range(0, 24));

} // namespace
} // namespace cfconv::serve
