/** @file Tests for the request-level serving simulator
 *  (serve/serving_sim): conservation of requests, byte-identical
 *  records across thread counts, the batching and multi-chip wins the
 *  bench asserts, admission-control shedding, and chaos-under-load
 *  with the serve.chip_down site. */

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/parallel.h"
#include "models/model_zoo.h"
#include "serve/serving_sim.h"
#include "sim/report.h"

namespace cfconv::serve {
namespace {

/** Small-model mix so each test stays fast (cost evaluations are
 *  memoized per simulator instance). */
ModelMix
tinyMix()
{
    return {{"alexnet", &models::alexnet, 3.0},
            {"zfnet", &models::zfnet, 1.0}};
}

TrafficSpec
lightTraffic(std::uint64_t seed = 42)
{
    TrafficSpec spec;
    spec.ratePerSecond = 400;
    spec.horizonSeconds = 0.25;
    spec.seed = seed;
    return spec;
}

TEST(ServingSim, ConservesRequestsAndDrains)
{
    ServingConfig config;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic());

    EXPECT_GT(result.offered, 0);
    EXPECT_EQ(result.offered, result.completed + result.shed);
    EXPECT_EQ(result.shed, 0); // unbounded admission: nothing shed
    EXPECT_GT(result.makespanSeconds, 0.0);
    EXPECT_GT(result.throughputRps, 0.0);
    EXPECT_GE(result.throughputRps, result.goodputRps);
    EXPECT_GT(result.p50, 0.0);
    EXPECT_LE(result.p50, result.p99);
    EXPECT_LE(result.p99, result.p999);

    // The record mirrors the result.
    const sim::RunRecord &record = result.record;
    EXPECT_EQ(record.accelerator, "serve:1xtpu-v2");
    EXPECT_EQ(record.model, "serving");
    ASSERT_EQ(record.layers.size(), 2u);
    Index completed = 0;
    for (const auto &layer : record.layers)
        completed += layer.count;
    EXPECT_EQ(completed, result.completed);
    EXPECT_GT(record.tflops, 0.0);
    EXPECT_FALSE(record.resilience.active);
}

TEST(ServingSim, ByteIdenticalRecordsAcrossThreadCounts)
{
    // Empty meta: compare the records payload alone, excluding the
    // process-global live-metrics block (wall-clock histograms), the
    // same split the byte-identity gates use.
    const auto runOnce = [] {
        ServingConfig config;
        config.chips = {ChipSpec{"tpu-v2"}, ChipSpec{"tpu-v2"}};
        ServingSimulator sim(config, tinyMix());
        return sim::runRecordsJson({sim.run(lightTraffic(7)).record},
                                   sim::ReportMeta{});
    };
    parallel::setThreads(1);
    const std::string serial = runOnce();
    parallel::setThreads(4);
    const std::string parallel4 = runOnce();
    parallel::setThreads(0);
    EXPECT_EQ(serial, parallel4);
}

TEST(ServingSim, DifferentSeedsDifferentRecords)
{
    ServingConfig config;
    ServingSimulator sim(config, tinyMix());
    const auto a = sim::runRecordsJson(
        {sim.run(lightTraffic(1)).record}, sim::ReportMeta{});
    const auto b = sim::runRecordsJson(
        {sim.run(lightTraffic(2)).record}, sim::ReportMeta{});
    EXPECT_NE(a, b);
}

TEST(ServingSim, BatchingBeatsBatchOneUnderLoad)
{
    TrafficSpec traffic;
    traffic.ratePerSecond = 3000; // past batch-1 capacity
    traffic.horizonSeconds = 0.1;
    traffic.seed = 13;

    ServingConfig config;
    config.batch.maxBatch = 1;
    ServingSimulator noBatch(config, tinyMix());
    const ServingResult one = noBatch.run(traffic);

    config.batch.maxBatch = 16;
    config.batch.maxWaitSeconds = 2e-3;
    ServingSimulator batched(config, tinyMix());
    const ServingResult sixteen = batched.run(traffic);

    EXPECT_GT(sixteen.meanBatch, 1.5);
    EXPECT_GT(sixteen.throughputRps, one.throughputRps);
    EXPECT_LT(sixteen.p99, one.p99); // queueing dominates at batch 1
}

TEST(ServingSim, FourChipsScaleThroughput)
{
    // Offered load far past even the 4-chip capacity, so both boards
    // run flat out and throughput is pure drain rate.
    TrafficSpec traffic;
    traffic.ratePerSecond = 60000;
    traffic.horizonSeconds = 0.02;
    traffic.seed = 17;

    ServingConfig config;
    config.batch.maxBatch = 8;
    ServingSimulator single(config, tinyMix());
    const ServingResult one = single.run(traffic);

    config.chips.assign(4, ChipSpec{"tpu-v2"});
    ServingSimulator quad(config, tinyMix());
    const ServingResult four = quad.run(traffic);

    // Saturated offered load: a 4-chip board must scale well.
    EXPECT_GT(four.throughputRps, 2.5 * one.throughputRps);
    EXPECT_LT(four.p99, one.p99);
}

TEST(ServingSim, HeterogeneousBoardPrefersTheFastChip)
{
    ServingConfig config;
    config.chips = {ChipSpec{"tpu-v2"}, ChipSpec{"tpu-v3ish"}};
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic(19));
    EXPECT_EQ(result.offered, result.completed);
    EXPECT_EQ(result.record.accelerator,
              "serve:1xtpu-v2+1xtpu-v3ish");
}

TEST(ServingSim, AdmissionControlBoundsTheQueueAndKeepsGoodput)
{
    // Sustained ~1.5x overload long enough that the unbounded queue's
    // drain tail blows far past the SLO.
    TrafficSpec traffic;
    traffic.ratePerSecond = 8000;
    traffic.horizonSeconds = 0.3;
    traffic.seed = 23;

    ServingConfig config;
    config.batch.maxBatch = 8;
    ServingSimulator open(config, tinyMix());
    const ServingResult unbounded = open.run(traffic);
    EXPECT_EQ(unbounded.shed, 0);

    config.admission.maxQueuePerClass = 32;
    ServingSimulator bounded(config, tinyMix());
    const ServingResult shed = bounded.run(traffic);

    EXPECT_GT(shed.shed, 0);
    EXPECT_LT(shed.shedFraction, 1.0);
    EXPECT_EQ(shed.offered, shed.completed + shed.shed);
    // Shedding keeps latency bounded, so goodput beats the open door.
    EXPECT_LT(shed.p99, unbounded.p99);
    EXPECT_GE(shed.goodputRps, unbounded.goodputRps);
}

TEST(ServingSim, ChaosChipDownRetriesEverythingToCompletion)
{
    auto &injector = fault::FaultInjector::instance();
    ASSERT_TRUE(injector
                    .configure("seed=99; serve.chip_down=0.2")
                    .ok());

    ServingConfig config;
    config.chips.assign(2, ChipSpec{"tpu-v2"});
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic(31));
    const std::string doc =
        sim::runRecordsJson({result.record}, sim::ReportMeta{});
    injector.disarm();

    EXPECT_GT(result.chipDownEvents, 0);
    EXPECT_EQ(result.offered, result.completed + result.shed);
    EXPECT_EQ(result.shed, 0); // outages delay, never drop
    EXPECT_TRUE(result.record.resilience.active);
    EXPECT_GE(result.record.resilience.faultsSeen,
              result.chipDownEvents);
    EXPECT_GE(result.record.resilience.retries, 1);
    // Armed injector stamps the v3 resilience block.
    EXPECT_NE(doc.find("\"resilience\""), std::string::npos);

    // Chaos runs are reproducible: same spec, same record.
    ASSERT_TRUE(injector
                    .configure("seed=99; serve.chip_down=0.2")
                    .ok());
    ServingSimulator again(config, tinyMix());
    const std::string doc2 = sim::runRecordsJson(
        {again.run(lightTraffic(31)).record}, sim::ReportMeta{});
    injector.disarm();
    EXPECT_EQ(doc, doc2);
}

TEST(ServingConfigValidation, NamesTheOffendingField)
{
    ServingConfig config;
    EXPECT_TRUE(validateServingConfig(config).ok());

    config.chips.clear();
    Status status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.toString().find("chips"), std::string::npos);

    config = ServingConfig{};
    config.sloSeconds = 0.0;
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("sloSeconds"), std::string::npos);

    config = ServingConfig{};
    config.breaker.enabled = true;
    config.breaker.failureThreshold = 0;
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("breaker.failureThreshold"),
              std::string::npos);
    // The same knobs are legal while the breaker stays disabled.
    config.breaker.enabled = false;
    EXPECT_TRUE(validateServingConfig(config).ok());

    config = ServingConfig{};
    config.degradation.enabled = true;
    config.degradation.stepUpPressure = 1.0;
    config.degradation.stepDownPressure = 2.0;
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("stepUpPressure"),
              std::string::npos);

    config = ServingConfig{};
    config.degradation.enabled = true;
    config.degradation.maxStep = 4;
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("degradation.maxStep"),
              std::string::npos);

    config = ServingConfig{};
    config.hedge.enabled = true;
    config.hedge.minSamples = 0;
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("hedge.minSamples"),
              std::string::npos);

    for (double percentile : {0.0, 1.5}) {
        config = ServingConfig{};
        config.hedge.enabled = true;
        config.hedge.latencyPercentile = percentile;
        status = validateServingConfig(config);
        ASSERT_FALSE(status.ok());
        EXPECT_NE(status.toString().find("hedge.latencyPercentile"),
                  std::string::npos);
    }

    config = ServingConfig{};
    config.fallbackVariants = {"tpu-v9-retired"};
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("tpu-v9-retired"),
              std::string::npos);

    config = ServingConfig{};
    config.chips = {ChipSpec{"tpu-v2"}, ChipSpec{"tpu-v9-imaginary"}};
    status = validateServingConfig(config);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.toString().find("chips[1].variant"),
              std::string::npos);
    EXPECT_NE(status.toString().find("tpu-v9-imaginary"),
              std::string::npos);
}

TEST(ServingSim, ZeroMaxWaitLaunchesImmediately)
{
    ServingConfig config;
    config.batch.maxWaitSeconds = 0.0;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic(41));
    EXPECT_EQ(result.offered, result.completed);
    // No batching delay: light-traffic batches are mostly singletons
    // and queue wait never contributes a max-wait hold.
    EXPECT_LT(result.meanBatch, 2.0);
    EXPECT_GT(result.p50, 0.0);
}

TEST(ServingSim, ZeroMaxQueueAdmitsEverything)
{
    // maxQueuePerClass=0 is the unbounded sentinel, not "shed all".
    TrafficSpec traffic;
    traffic.ratePerSecond = 8000; // well past capacity
    traffic.horizonSeconds = 0.05;
    traffic.seed = 43;
    ServingConfig config;
    config.admission.maxQueuePerClass = 0;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(traffic);
    EXPECT_EQ(result.shed, 0);
    EXPECT_EQ(result.offered, result.completed);
}

TEST(ModelClasses, UnknownNameIsNotFoundListingTheZoo)
{
    const auto made = makeModelClass("not-a-model");
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
    // The error lists the valid names so the CLI message is usable.
    EXPECT_NE(made.status().toString().find("alexnet"),
              std::string::npos);
}

TEST(ModelClasses, ParseClassSpecsRoundTripsAndNamesOffenders)
{
    const auto mix = parseClassSpecs("alexnet:2:0:50,zfnet:1:1:100");
    ASSERT_TRUE(mix.ok()) << mix.status().toString();
    ASSERT_EQ(mix.value().size(), 2u);
    EXPECT_EQ(mix.value()[0].name, "alexnet");
    EXPECT_DOUBLE_EQ(mix.value()[0].weight, 2.0);
    EXPECT_EQ(mix.value()[0].priority, 0);
    EXPECT_DOUBLE_EQ(mix.value()[0].sloSeconds, 50e-3);
    EXPECT_EQ(mix.value()[1].priority, 1);
    EXPECT_DOUBLE_EQ(mix.value()[1].sloSeconds, 100e-3);

    const auto bad = parseClassSpecs("alexnet:bogus");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().toString().find("bogus"),
              std::string::npos);
    EXPECT_FALSE(parseClassSpecs("unknown-model:1").ok());
    EXPECT_FALSE(parseClassSpecs("").ok());
}

TEST(ModelClasses, ClassSpecNumbersAreWholeDecimals)
{
    const auto mix = parseClassSpecs("alexnet:0.5:2:2.5e1");
    ASSERT_TRUE(mix.ok()) << mix.status().toString();
    EXPECT_EQ(mix.value()[0].weight, 0.5);
    EXPECT_EQ(mix.value()[0].priority, 2);
    EXPECT_EQ(mix.value()[0].sloSeconds, 25e-3);
    for (const char *bad :
         {"alexnet:0x2", "alexnet: 2", "alexnet:+2", "alexnet:2:1:inf",
          "alexnet:2:", "alexnet:2:1.5", "alexnet:2:1e30"}) {
        const auto rejected = parseClassSpecs(bad);
        EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
            << bad;
        EXPECT_NE(rejected.status().message().find("malformed number"),
                  std::string::npos)
            << rejected.status().toString();
    }
}

TEST(ServingSim, PerClassSloSplitsGoodputAccounting)
{
    // Class 0 gets a generous SLO, class 1 an impossible one: every
    // completed class-1 request violates, class 0 never does.
    ModelMix mix = tinyMix();
    mix[0].sloSeconds = 1.0;
    mix[1].sloSeconds = 1e-9;
    ServingConfig config;
    ServingSimulator sim(config, mix);
    const ServingResult result = sim.run(lightTraffic(47));
    ASSERT_EQ(result.classes.size(), 2u);
    EXPECT_EQ(result.classes[0].sloViolations, 0);
    EXPECT_EQ(result.classes[1].sloViolations,
              result.classes[1].completed);
    EXPECT_GT(result.classes[1].completed, 0);
    EXPECT_LT(result.goodputRps, result.throughputRps);
}

TEST(ServingSim, BrownoutShedsTheLowestPriorityClassFirst)
{
    // Sustained overload with an aggressive ladder: step 2 sheds the
    // high-tier (least important) class at arrival while the tier-0
    // class keeps being admitted.
    ModelMix mix = tinyMix();
    mix[0].priority = 0;
    mix[1].priority = 1;
    TrafficSpec traffic;
    traffic.ratePerSecond = 12000;
    traffic.horizonSeconds = 0.1;
    traffic.seed = 53;

    ServingConfig config;
    config.batch.maxBatch = 8;
    config.degradation.enabled = true;
    config.degradation.maxStep = 2;
    config.degradation.stepUpPressure = 1.5;
    config.degradation.stepUpAfterSeconds = 2e-3;
    config.degradation.stepDownPressure = 0.5;
    config.degradation.stepDownAfterSeconds = 50e-3;
    ServingSimulator sim(config, mix);
    const ServingResult result = sim.run(traffic);

    EXPECT_EQ(result.offered, result.completed + result.shed);
    EXPECT_GT(result.brownoutShed, 0);
    EXPECT_EQ(result.degradeStepMax, 2);
    ASSERT_EQ(result.classes.size(), 2u);
    EXPECT_EQ(result.classes[0].brownoutShed, 0);
    EXPECT_EQ(result.classes[1].brownoutShed, result.brownoutShed);
    EXPECT_GT(result.degradeTransitions, 0);
    EXPECT_GT(result.degradeSeconds[2], 0.0);
}

TEST(ServingSim, AlgorithmFallbackServesOnTheCheapestVariant)
{
    TrafficSpec traffic;
    traffic.ratePerSecond = 12000;
    traffic.horizonSeconds = 0.1;
    traffic.seed = 59;

    ServingConfig config;
    config.batch.maxBatch = 8;
    config.degradation.enabled = true;
    config.degradation.stepUpPressure = 1.5;
    config.degradation.stepUpAfterSeconds = 1e-3;
    config.degradation.stepDownPressure = 0.5;
    config.degradation.stepDownAfterSeconds = 50e-3;
    // tpu-v3ish is strictly faster than tpu-v2, so the fallback step
    // both engages and visibly helps.
    config.fallbackVariants = {"tpu-v3ish"};
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(traffic);

    EXPECT_EQ(result.degradeStepMax, 3);
    EXPECT_GT(result.fallbackBatches, 0);
    EXPECT_GT(result.degradeSeconds[3], 0.0);
    EXPECT_EQ(result.offered, result.completed + result.shed);
}

TEST(ServingSim, HedgingDuplicatesStragglersFirstCompletionWins)
{
    // Bursty overload on a 3-chip board: batches that waited past the
    // observed median latency re-launch on a second idle chip.
    TrafficSpec traffic;
    traffic.ratePerSecond = 9000;
    traffic.horizonSeconds = 0.1;
    traffic.seed = 61;

    ServingConfig config;
    config.chips.assign(3, ChipSpec{"tpu-v2"});
    config.batch.maxBatch = 8;
    config.hedge.enabled = true;
    config.hedge.latencyPercentile = 0.5;
    config.hedge.minSamples = 4;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(traffic);

    EXPECT_GT(result.hedgedBatches, 0);
    EXPECT_EQ(result.hedgedBatches,
              result.hedgeWins + result.hedgeLosses);
    EXPECT_EQ(result.offered, result.completed + result.shed);
}

TEST(ServingSim, BreakersRouteAroundARepeatOffender)
{
    auto &injector = fault::FaultInjector::instance();
    ASSERT_TRUE(injector
                    .configure("seed=42; serve.chip_down@gpu-v100=0.6")
                    .ok());

    ServingConfig config;
    config.chips = {ChipSpec{"gpu-v100"}, ChipSpec{"tpu-v2"},
                    ChipSpec{"tpu-v2"}};
    config.breaker.enabled = true;
    config.breaker.failureThreshold = 2;
    config.breaker.openSeconds = 50e-3;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic(67));
    const std::string doc =
        sim::runRecordsJson({result.record}, sim::ReportMeta{});
    injector.disarm();

    // The dispatcher blind-spot regression: every offered request is
    // accounted for even while the preferred chip flaps and trips.
    EXPECT_EQ(result.offered, result.completed + result.shed);
    EXPECT_GT(result.chipDownEvents, 0);
    EXPECT_GT(result.breakerTrips, 0);
    EXPECT_GE(result.breakerProbes, result.breakerCloses);

    // The record mirrors the resilience outcome into the serving
    // block.
    const auto &serving = result.record.resilience.serving;
    EXPECT_TRUE(result.record.resilience.active);
    EXPECT_TRUE(serving.active);
    EXPECT_EQ(serving.breakerTrips, result.breakerTrips);
    EXPECT_EQ(serving.hedgeWins, result.hedgeWins);
    EXPECT_NE(doc.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"breaker_trips\""), std::string::npos);

    // Reproducible: same chaos spec, same bytes.
    ASSERT_TRUE(injector
                    .configure("seed=42; serve.chip_down@gpu-v100=0.6")
                    .ok());
    ServingSimulator again(config, tinyMix());
    const std::string doc2 = sim::runRecordsJson(
        {again.run(lightTraffic(67)).record}, sim::ReportMeta{});
    injector.disarm();
    EXPECT_EQ(doc, doc2);
}

TEST(ServingSim, ResilientChaosByteIdenticalAcrossThreadCounts)
{
    const auto runOnce = [] {
        auto &injector = fault::FaultInjector::instance();
        EXPECT_TRUE(
            injector
                .configure("seed=42; serve.chip_down@gpu-v100=0.6;"
                           " serve.chip_down=0.01")
                .ok());
        ServingConfig config;
        config.chips = {ChipSpec{"gpu-v100"}, ChipSpec{"tpu-v2"},
                        ChipSpec{"tpu-v2"}};
        config.admission.maxQueuePerClass = 32;
        config.breaker.enabled = true;
        config.degradation.enabled = true;
        config.hedge.enabled = true;
        config.fallbackVariants = {"tpu-v3ish"};
        ServingSimulator sim(config, tinyMix());
        const std::string doc = sim::runRecordsJson(
            {sim.run(lightTraffic(71)).record}, sim::ReportMeta{});
        injector.disarm();
        return doc;
    };
    parallel::setThreads(1);
    const std::string serial = runOnce();
    parallel::setThreads(4);
    const std::string parallel4 = runOnce();
    parallel::setThreads(0);
    EXPECT_EQ(serial, parallel4);
}

TEST(ServingSim, HedgePercentileIsNotSnappedToTheMedian)
{
    // The 3-chip hedging scenario above, armed at p90 instead of p50:
    // a later cutoff marks a different set of batches as stragglers.
    TrafficSpec traffic;
    traffic.ratePerSecond = 9000;
    traffic.horizonSeconds = 0.1;
    traffic.seed = 61;

    ServingConfig config;
    config.chips.assign(3, ChipSpec{"tpu-v2"});
    config.batch.maxBatch = 8;
    config.hedge.enabled = true;
    config.hedge.minSamples = 4;
    config.hedge.latencyPercentile = 0.5;
    ServingSimulator median(config, tinyMix());
    const Index atMedian = median.run(traffic).hedgedBatches;
    config.hedge.latencyPercentile = 0.9;
    ServingSimulator p90(config, tinyMix());
    const Index atP90 = p90.run(traffic).hedgedBatches;
    EXPECT_GT(atMedian, 0);
    EXPECT_NE(atP90, atMedian);
}

TEST(ServingSim, FaultFreeResilienceConfigRecordsNoChaos)
{
    // Enabled-but-unexercised resilience must not perturb the
    // record: without an armed injector nothing faults, trips or
    // fails over.
    ServingConfig config;
    config.breaker.enabled = true;
    config.hedge.enabled = true;
    ServingSimulator sim(config, tinyMix());
    const ServingResult result = sim.run(lightTraffic(73));
    const sim::ResilienceInfo &resilience = result.record.resilience;
    EXPECT_FALSE(resilience.active);
    EXPECT_EQ(resilience.faultsSeen, 0);
    EXPECT_EQ(resilience.failovers, 0);
    EXPECT_TRUE(resilience.serving.active);
    EXPECT_EQ(resilience.serving.breakerTrips, 0);
    const std::string doc =
        sim::runRecordsJson({result.record}, sim::ReportMeta{});
    EXPECT_NE(doc.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"breaker_trips\": 0"), std::string::npos);
}

TEST(ServingSim, PolicySweepReusesCostEvaluations)
{
    ServingConfig config;
    ServingSimulator sim(config, tinyMix());
    sim.run(lightTraffic(37));
    const Index cold = sim.costModel().evaluations();
    EXPECT_GT(cold, 0);
    sim.setScenario("again");
    sim.run(lightTraffic(37));
    EXPECT_EQ(sim.costModel().evaluations(), cold); // all memo hits
}

} // namespace
} // namespace cfconv::serve
