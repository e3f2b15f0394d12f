/** @file Chaos tests for the resilient ModelRunner: fault-free parity
 *  with the legacy path, deterministic chaos schedules across thread
 *  counts and runs, retry/failover with checkpoint resume, layer
 *  validation at the accelerator boundary, serving batch costs under
 *  armed chaos, and self-healing memo-cache corruption. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "gpusim/kernel_cache.h"
#include "models/model_zoo.h"
#include "serve/cost_model.h"
#include "sim/model_runner.h"
#include "sim/report.h"
#include "sim/variants.h"
#include "sram/banked_sram.h"
#include "tpusim/layer_cache.h"

namespace cfconv::sim {
namespace {

/** Each test starts and ends fault-free with cold memo caches (the
 *  corrupt-insert site must see every insert, and chaos schedules must
 *  not depend on what earlier tests cached). */
class ResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::FaultInjector::instance().disarm();
        tpusim::LayerCache::instance().clear();
        gpusim::KernelCache::instance().clear();
    }

    void
    TearDown() override
    {
        fault::FaultInjector::instance().disarm();
        tpusim::LayerCache::instance().clear();
        gpusim::KernelCache::instance().clear();
    }
};

/** Records rendered with a fixed (empty) meta, so comparisons see only
 *  the deterministic record payload, not wall-clock histograms. */
std::string
recordsJson(const RunRecord &record)
{
    return runRecordsJson({record}, ReportMeta{});
}

TEST_F(ResilienceTest, FaultFreeRunsReportAnInactiveBlock)
{
    const auto model = models::alexnet(8);
    const auto accelerator = makeAccelerator("tpu-v2");
    const RunRecord record = ModelRunner(*accelerator).runModel(model);
    EXPECT_FALSE(record.resilience.active);
    EXPECT_EQ(record.resilience.faultsSeen, 0);
    for (const auto &layer : record.layers)
        EXPECT_EQ(layer.extras.count("attempts"), 0u) << layer.name;
    const std::string doc = recordsJson(record);
    EXPECT_NE(doc.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"active\": false"), std::string::npos);
    EXPECT_NE(doc.find("\"faults_seen\": 0"), std::string::npos);
}

TEST_F(ResilienceTest, ArmedButQuietRunMatchesFaultFreeResults)
{
    const auto model = models::alexnet(8);
    const auto accelerator = makeAccelerator("tpu-v2");
    const ModelRunner runner(*accelerator);
    const RunRecord baseline = runner.runModel(model);

    // Armed, but the only site has rate 0: the resilient path runs and
    // must reproduce the legacy numbers exactly.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=1; accel.step_timeout=0")
                    .ok());
    const RunRecord quiet = runner.runModel(model);
    EXPECT_TRUE(quiet.resilience.active);
    EXPECT_EQ(quiet.resilience.faultsSeen, 0);
    EXPECT_EQ(quiet.resilience.retries, 0);
    EXPECT_EQ(quiet.resilience.failovers, 0);
    EXPECT_DOUBLE_EQ(quiet.seconds, baseline.seconds);
    EXPECT_EQ(quiet.dramBytes, baseline.dramBytes);
    ASSERT_EQ(quiet.layers.size(), baseline.layers.size());
    for (size_t i = 0; i < quiet.layers.size(); ++i) {
        EXPECT_DOUBLE_EQ(quiet.layers[i].seconds,
                         baseline.layers[i].seconds)
            << "layer " << i;
        EXPECT_EQ(quiet.layers[i].extras, baseline.layers[i].extras)
            << "layer " << i;
    }

    // The chaos document self-describes with an active, all-zero
    // block.
    const std::string doc = recordsJson(quiet);
    EXPECT_NE(doc.find("\"version\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"active\": true"), std::string::npos);
    EXPECT_NE(doc.find("\"faults_seen\": 0"), std::string::npos);
}

TEST_F(ResilienceTest, ForcedFailoverCompletesTheModel)
{
    const auto model = models::alexnet(8);
    const Index n_layers = static_cast<Index>(model.layers.size());
    // Every tpu-v2 attempt times out; gpu-v100 never does (the scoped
    // rate only covers the primary), so the whole model completes on
    // the failover backend.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=11; accel.step_timeout@tpu-v2=1; "
                               "max_attempts=2; failover=gpu-v100")
                    .ok());
    MetricsRegistry::instance().reset();

    const auto accelerator = makeAccelerator("tpu-v2");
    const RunRecord record = ModelRunner(*accelerator).runModel(model);

    EXPECT_EQ(record.accelerator, "tpu-v2"); // the requested backend
    EXPECT_TRUE(record.resilience.active);
    EXPECT_EQ(record.resilience.failovers, 1);
    EXPECT_EQ(record.resilience.finalBackend, "gpu-v100");
    EXPECT_EQ(record.resilience.layersFailedOver, n_layers);
    EXPECT_EQ(record.resilience.layersResumed, 0); // nothing finished
    // 2 failed attempts per layer = 1 retry + 1 exhaustion, each seen.
    EXPECT_EQ(record.resilience.faultsSeen, 2 * n_layers);
    EXPECT_EQ(record.resilience.retries, n_layers);
    EXPECT_GT(record.resilience.backoffSeconds, 0.0);
    EXPECT_GT(record.seconds, 0.0);
    for (const auto &layer : record.layers) {
        EXPECT_EQ(layer.extras.at("failedOver"), 1.0) << layer.name;
        EXPECT_EQ(layer.extras.at("attempts"), 3.0) << layer.name;
    }

    // The failover layers carry gpu-v100 numbers.
    const auto gpu = makeAccelerator("gpu-v100");
    fault::FaultInjector::instance().disarm();
    const RunRecord on_gpu = ModelRunner(*gpu).runModel(model);
    ASSERT_EQ(record.layers.size(), on_gpu.layers.size());
    for (size_t i = 0; i < record.layers.size(); ++i)
        EXPECT_DOUBLE_EQ(record.layers[i].seconds,
                         on_gpu.layers[i].seconds)
            << "layer " << i;

    // The outcome is visible in the process metrics too.
    const StatGroup metrics = MetricsRegistry::instance().snapshot();
    const auto &counters = metrics.counters();
    EXPECT_EQ(counters.at("resilience.failovers"), 1.0);
    EXPECT_EQ(counters.at("resilience.retries"),
              static_cast<double>(n_layers));
    EXPECT_GE(counters.at("fault.injected.accel.step_timeout"),
              static_cast<double>(2 * n_layers));
}

TEST_F(ResilienceTest, PartialFailoverResumesFromTheCheckpoint)
{
    const auto model = models::resnet50(8);
    const Index n_layers = static_cast<Index>(model.layers.size());
    // One attempt per layer, ~half the primary dice come up bad: the
    // surviving layers are checkpointed and only the failed ones rerun
    // on the failover backend.
    ASSERT_TRUE(
        fault::FaultInjector::instance()
            .configure("seed=3; accel.step_timeout@tpu-v2=0.5; "
                       "max_attempts=1; failover=gpu-v100")
            .ok());
    const auto accelerator = makeAccelerator("tpu-v2");
    const RunRecord record = ModelRunner(*accelerator).runModel(model);

    EXPECT_EQ(record.resilience.failovers, 1);
    EXPECT_GT(record.resilience.layersFailedOver, 0);
    EXPECT_GT(record.resilience.layersResumed, 0);
    EXPECT_EQ(record.resilience.layersFailedOver +
                  record.resilience.layersResumed,
              n_layers);
    EXPECT_EQ(record.resilience.retries, 0); // max_attempts=1
    EXPECT_EQ(record.resilience.faultsSeen,
              record.resilience.layersFailedOver);
    // Exactly the failed-over layers are marked.
    Index marked = 0;
    for (const auto &layer : record.layers)
        marked += layer.extras.count("failedOver") ? 1 : 0;
    EXPECT_EQ(marked, record.resilience.layersFailedOver);
}

TEST_F(ResilienceTest, ChaosRecordsAreByteIdenticalAcrossThreadCounts)
{
    const auto model = models::resnet50(8);
    const char *spec = "seed=5; accel.step_timeout@tpu-v2=0.5; "
                       "max_attempts=2; failover=gpu-v100";
    const Index original_threads = parallel::threads();

    for (const std::string backend : {"tpu-v2", "gpu-v100"}) {
        // gpu-v100 as primary sees no scoped rate, so it also covers
        // the armed-but-quiet document shape at both thread counts.
        const auto accelerator = makeAccelerator(backend);
        const ModelRunner runner(*accelerator);
        std::vector<std::string> docs;
        for (const Index threads : {Index(1), Index(4)}) {
            parallel::setThreads(threads);
            for (int repeat = 0; repeat < 2; ++repeat) {
                tpusim::LayerCache::instance().clear();
                gpusim::KernelCache::instance().clear();
                ASSERT_TRUE(
                    fault::FaultInjector::instance().configure(spec)
                        .ok());
                docs.push_back(recordsJson(runner.runModel(model)));
            }
        }
        for (size_t i = 1; i < docs.size(); ++i)
            EXPECT_EQ(docs[0], docs[i])
                << backend << ": document " << i
                << " diverged (1 vs 4 threads / repeat)";
    }
    parallel::setThreads(original_threads);
}

TEST_F(ResilienceTest, ExhaustedBackendsSurfaceTheLastError)
{
    const auto model = models::alexnet(8);
    // Every backend in the chain times out on every attempt.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=2; accel.step_timeout=1; "
                               "max_attempts=2; failover=gpu-v100")
                    .ok());
    const auto accelerator = makeAccelerator("tpu-v2");
    const auto result = ModelRunner(*accelerator).tryRunModel(model);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(result.status().message().find("backends exhausted"),
              std::string::npos);
    // The fatal wrapper turns the same failure into a FatalError.
    EXPECT_THROW(ModelRunner(*accelerator).runModel(model), FatalError);
}

TEST_F(ResilienceTest, UnknownFailoverBackendIsNotFound)
{
    const auto model = models::alexnet(8);
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=2; accel.step_timeout@tpu-v2=1; "
                               "max_attempts=1; failover=no-such")
                    .ok());
    const auto accelerator = makeAccelerator("tpu-v2");
    const auto result = ModelRunner(*accelerator).tryRunModel(model);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    EXPECT_NE(result.status().message().find("no-such"),
              std::string::npos);
}

TEST_F(ResilienceTest, InvalidLayersFailFastWithoutBurningFailover)
{
    models::ModelSpec model;
    model.name = "bad-geometry";
    models::ConvLayerSpec layer;
    layer.name = "zero-stride";
    layer.params = tensor::makeConv(1, 8, 8, 8, 3);
    layer.params.strideH = 0;
    model.layers.push_back(layer);

    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=1; accel.step_timeout=0; "
                               "failover=gpu-v100")
                    .ok());
    const auto accelerator = makeAccelerator("tpu-v2");
    const auto result = ModelRunner(*accelerator).tryRunModel(model);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("strideH"),
              std::string::npos);

    // The legacy (disarmed) path validates too, naming the field.
    fault::FaultInjector::instance().disarm();
    EXPECT_THROW(ModelRunner(*accelerator).runModel(model), FatalError);
}

TEST_F(ResilienceTest, TryMakeAcceleratorReportsUnknownNames)
{
    for (const VariantSpec &spec : variantSpecs()) {
        const auto made = tryMakeAccelerator(spec.name);
        ASSERT_TRUE(made.ok()) << spec.name;
        EXPECT_EQ(made.value()->name(), spec.name);
    }
    const auto bad = tryMakeAccelerator("tpu-v9");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
    EXPECT_NE(bad.status().message().find("tpu-v9"), std::string::npos);
}

TEST_F(ResilienceTest, CacheCorruptionIsDetectedAndSelfHeals)
{
    const auto model = models::alexnet(8);
    const auto accelerator = makeAccelerator("tpu-v2");
    const ModelRunner runner(*accelerator);
    const RunRecord baseline = runner.runModel(model);

    auto &cache = tpusim::LayerCache::instance();
    if (!cache.enabled())
        GTEST_SKIP() << "layer cache disabled via env";
    cache.clear();
    // A clean cache reports the counter too, at zero.
    EXPECT_EQ(cache.statsSnapshot().counters().at(
                  "layer_cache.corruptions_detected"),
              0.0);

    // Every layer_cache insert stores a flipped checksum; every later
    // lookup must detect the damage, evict, and recompute — so the
    // numbers never change, only the corruption counters move.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=1; cache.corrupt@layer_cache=1")
                    .ok());
    const RunRecord first = runner.runModel(model);
    const RunRecord second = runner.runModel(model);
    EXPECT_GT(cache.corruptionsDetected(), 0u);
    EXPECT_DOUBLE_EQ(first.seconds, baseline.seconds);
    EXPECT_DOUBLE_EQ(second.seconds, baseline.seconds);
    for (size_t i = 0; i < baseline.layers.size(); ++i) {
        EXPECT_DOUBLE_EQ(first.layers[i].seconds,
                         baseline.layers[i].seconds)
            << "layer " << i;
        EXPECT_DOUBLE_EQ(second.layers[i].seconds,
                         baseline.layers[i].seconds)
            << "layer " << i;
    }
    // The detections show up in the stats snapshot.
    const StatGroup stats = cache.statsSnapshot();
    EXPECT_GT(stats.counters().at("layer_cache.corruptions_detected"),
              0.0);
    EXPECT_EQ(baseline.resilience.active, false);
}

TEST_F(ResilienceTest, CleanCachesReportZeroCorruptionsOnBothBackends)
{
    // The corruption counter is part of every cache snapshot, at zero
    // before and after a fault-free model run, on either backend.
    const auto model = models::alexnet(8);
    for (const char *name : {"tpu-v2", "gpu-v100"}) {
        const auto accelerator = makeAccelerator(name);
        const std::string prefix = std::string(name) == "tpu-v2"
            ? "layer_cache"
            : "kernel_cache";
        const auto corruptions = [&] {
            const auto counters = accelerator->cacheStats().counters();
            const auto it = counters.find(prefix + ".corruptions_detected");
            EXPECT_NE(it, counters.end()) << name;
            return it == counters.end() ? -1.0 : it->second;
        };
        EXPECT_EQ(corruptions(), 0.0) << name;
        const RunRecord record = ModelRunner(*accelerator).runModel(model);
        EXPECT_FALSE(record.resilience.active) << name;
        EXPECT_EQ(corruptions(), 0.0) << name;
    }
}

TEST_F(ResilienceTest, BatchCostIsTheSameArmedQuietOrDisarmed)
{
    // BatchCostModel::cost makes one runner call whether or not chaos
    // is armed: a quiet armed injector prices the batch exactly as the
    // fault-free run does and only marks the resilience block active.
    auto alexnet = serve::makeModelClass("alexnet");
    ASSERT_TRUE(alexnet.ok());
    const serve::ModelMix mix = {alexnet.value()};
    const auto accelerator = makeAccelerator("tpu-v2");

    serve::BatchCostModel fault_free(mix);
    const serve::BatchCost base = fault_free.cost(*accelerator, 0, 8);
    EXPECT_FALSE(base.resilience.active);
    EXPECT_GT(base.seconds, 0.0);

    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=1; accel.step_timeout=0")
                    .ok());
    serve::BatchCostModel armed(mix);
    const serve::BatchCost quiet = armed.cost(*accelerator, 0, 8);
    EXPECT_TRUE(quiet.resilience.active);
    EXPECT_EQ(quiet.resilience.faultsSeen, 0);
    EXPECT_EQ(quiet.resilience.backoffSeconds, 0.0);
    EXPECT_EQ(quiet.seconds, base.seconds);
    EXPECT_EQ(quiet.perRequestFlops, base.perRequestFlops);
    EXPECT_EQ(quiet.dramBytes, base.dramBytes);
    EXPECT_EQ(armed.evaluations(), 1);

    // A run no backend can finish surfaces as a FatalError from the
    // same call, with nothing memoized.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=2; accel.step_timeout=1; "
                               "max_attempts=2")
                    .ok());
    serve::BatchCostModel doomed(mix);
    EXPECT_THROW(doomed.cost(*accelerator, 0, 8), FatalError);
    EXPECT_EQ(doomed.evaluations(), 0);
}

TEST_F(ResilienceTest, SramBankReadErrorsAreDeterministicAndCounted)
{
    const sram::BankedSramConfig config{4, 8};
    const std::vector<std::vector<Index>> columns = {
        {0, 1, 2, 3}, {0, 0, 1, 1}, {3, 3, 3, 3}, {2, 0, 2, 0},
        {1, 2, 3, 0}, {0, 1, 0, 1}, {2, 2, 1, 3}, {3, 1, 0, 2},
    };
    const auto serveAll = [&columns](const sram::BankedSramConfig &c) {
        sram::BankedSram sram(c);
        Cycles total = 0;
        for (const auto &column : columns)
            total += sram.serveColumn(column);
        return std::pair<Cycles, Index>(total, sram.readErrors());
    };

    const auto [cleanCycles, cleanErrors] = serveAll(config);
    EXPECT_EQ(cleanErrors, 0);

    // A detected read error re-reads the column, so an armed run pays
    // extra cycles — and the schedule is a pure function of the seed
    // and the column index, so two armed runs agree exactly.
    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=6; sram.bank_read=0.5")
                    .ok());
    const auto [chaosCycles, chaosErrors] = serveAll(config);
    const auto [againCycles, againErrors] = serveAll(config);
    EXPECT_GT(chaosErrors, 0);
    EXPECT_GT(chaosCycles, cleanCycles);
    EXPECT_EQ(chaosCycles, againCycles);
    EXPECT_EQ(chaosErrors, againErrors);
}

TEST_F(ResilienceTest, WorkerStallsOnlyAddLatency)
{
    const auto model = models::alexnet(8);
    const auto accelerator = makeAccelerator("gpu-v100");
    const ModelRunner runner(*accelerator);
    const RunRecord baseline = runner.runModel(model);

    ASSERT_TRUE(fault::FaultInjector::instance()
                    .configure("seed=4; pool.worker_stall=1")
                    .ok());
    gpusim::KernelCache::instance().clear();
    const RunRecord stalled = runner.runModel(model);
    // A stalled worker still computes its chunk: results bit-exact.
    EXPECT_DOUBLE_EQ(stalled.seconds, baseline.seconds);
    EXPECT_EQ(stalled.dramBytes, baseline.dramBytes);
    EXPECT_EQ(stalled.resilience.faultsSeen, 0); // latency-only site
}

} // namespace
} // namespace cfconv::sim
