/** @file Tests for the deterministic fault injector: spec parsing,
 *  pure per-key decisions, scoped rates, and the resilience policy. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fault.h"

namespace cfconv::fault {
namespace {

/** Every test leaves the process-wide injector disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().disarm(); }
    void TearDown() override { FaultInjector::instance().disarm(); }
};

TEST_F(FaultTest, DisarmedByDefault)
{
    auto &injector = FaultInjector::instance();
    EXPECT_FALSE(injector.armed());
    EXPECT_FALSE(injector.shouldInject(kAccelStepTimeout, "tpu-v2", 1));
    EXPECT_FALSE(injector.inject(kCacheCorrupt, "", 7));
}

TEST_F(FaultTest, ConfiguresSitesAndPolicy)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector
                    .configure("seed=42; accel.step_timeout=0.5; "
                               "cache.corrupt@layer_cache=1.0; "
                               "max_attempts=4; backoff_us=50; "
                               "backoff_mult=3; backoff_cap_us=400; "
                               "failover=gpu-v100,tpu-v2")
                    .ok());
    EXPECT_TRUE(injector.armed());
    EXPECT_EQ(injector.seed(), 42u);
    EXPECT_DOUBLE_EQ(injector.rate(kAccelStepTimeout, "tpu-v2"), 0.5);
    // The scoped rate overrides the (absent) unscoped one.
    EXPECT_DOUBLE_EQ(injector.rate(kCacheCorrupt, "layer_cache"), 1.0);
    EXPECT_DOUBLE_EQ(injector.rate(kCacheCorrupt, "kernel_cache"), 0.0);

    const ResiliencePolicy policy = injector.policy();
    EXPECT_EQ(policy.maxAttempts, 4);
    EXPECT_DOUBLE_EQ(policy.backoffSeconds, 50e-6);
    EXPECT_DOUBLE_EQ(policy.backoffMultiplier, 3.0);
    EXPECT_DOUBLE_EQ(policy.maxBackoffSeconds, 400e-6);
    EXPECT_EQ(policy.failover,
              (std::vector<std::string>{"gpu-v100", "tpu-v2"}));
}

TEST_F(FaultTest, EmptySpecDisarms)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector.configure("seed=1; pool.worker_stall=1").ok());
    EXPECT_TRUE(injector.armed());
    ASSERT_TRUE(injector.configure("").ok());
    EXPECT_FALSE(injector.armed());
}

TEST_F(FaultTest, RejectsMalformedSpecsAndKeepsPreviousConfig)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector.configure("seed=9; sram.bank_read=0.25").ok());

    const Status unknown = injector.configure("no.such_site=0.5");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
    // The error names the offender and lists what is legal.
    EXPECT_NE(unknown.message().find("no.such_site"),
              std::string::npos);
    EXPECT_NE(unknown.message().find(kSramBankRead),
              std::string::npos);

    EXPECT_FALSE(injector.configure("accel.step_timeout=1.5").ok());
    EXPECT_FALSE(injector.configure("accel.step_timeout=abc").ok());
    EXPECT_FALSE(injector.configure("max_attempts=0").ok());
    EXPECT_FALSE(injector.configure("backoff_mult=0.5").ok());
    EXPECT_FALSE(injector.configure("accel.step_timeout@=1").ok());
    EXPECT_FALSE(injector.configure("just-a-token").ok());

    // A failed configure keeps the previous arming.
    EXPECT_TRUE(injector.armed());
    EXPECT_EQ(injector.seed(), 9u);
    EXPECT_DOUBLE_EQ(injector.rate(kSramBankRead, ""), 0.25);
}

TEST_F(FaultTest, RejectsARepeatedKeyAndANonDecimalNumber)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector.configure("seed=3; accel.step_timeout=0.5").ok());
    // A scoped key is a key of its own; a repeated one is an error
    // naming it, as on a command line or in a config file.
    EXPECT_TRUE(injector
                    .configure("accel.step_timeout=0.25; "
                               "accel.step_timeout@tpu-v2=1")
                    .ok());
    for (const char *spec :
         {"seed=1; accel.step_timeout@tpu-v2=1; "
          "accel.step_timeout@tpu-v2=0",
          "seed=1; seed=2", "failover=gpu-v100; failover=tpu-v2"}) {
        const Status repeated = injector.configure(spec);
        EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument) << spec;
        EXPECT_NE(repeated.message().find("repeats the key"),
                  std::string::npos)
            << repeated.toString();
    }
    EXPECT_NE(injector
                  .configure("accel.step_timeout@tpu-v2=1; "
                             "accel.step_timeout@tpu-v2=0")
                  .message()
                  .find("accel.step_timeout@tpu-v2"),
              std::string::npos);
    for (const char *spec : {"accel.step_timeout=0x1p-1",
                             "accel.step_timeout=+0.5",
                             "accel.step_timeout=nan", "backoff_us=inf"})
        EXPECT_EQ(injector.configure(spec).code(),
                  StatusCode::kInvalidArgument)
            << spec;
    // The last good spec stays armed.
    EXPECT_DOUBLE_EQ(injector.rate(kAccelStepTimeout, "tpu-v2"), 1.0);
    EXPECT_DOUBLE_EQ(injector.rate(kAccelStepTimeout, "gpu-v100"), 0.25);
}

TEST_F(FaultTest, DecisionsArePureFunctionsOfSeedSiteScopeKey)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(
        injector.configure("seed=7; accel.step_timeout=0.5").ok());

    std::vector<bool> first;
    for (std::uint64_t key = 0; key < 64; ++key)
        first.push_back(
            injector.shouldInject(kAccelStepTimeout, "tpu-v2", key));
    // Same spec, same answers — in any order.
    for (std::uint64_t key = 64; key-- > 0;)
        EXPECT_EQ(injector.shouldInject(kAccelStepTimeout, "tpu-v2",
                                        key),
                  first[static_cast<size_t>(key)]);

    // A rate of 0.5 actually splits the keys.
    int hits = 0;
    for (bool b : first)
        hits += b ? 1 : 0;
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, 64);

    // A different seed yields a different schedule.
    ASSERT_TRUE(
        injector.configure("seed=8; accel.step_timeout=0.5").ok());
    bool differs = false;
    for (std::uint64_t key = 0; key < 64; ++key)
        differs = differs ||
                  injector.shouldInject(kAccelStepTimeout, "tpu-v2",
                                        key) !=
                      first[static_cast<size_t>(key)];
    EXPECT_TRUE(differs);
}

TEST_F(FaultTest, RateEdgesAreDeterministic)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector
                    .configure("seed=3; cache.corrupt=1.0; "
                               "pool.worker_stall=0.0")
                    .ok());
    for (std::uint64_t key = 0; key < 16; ++key) {
        EXPECT_TRUE(injector.shouldInject(kCacheCorrupt, "", key));
        EXPECT_FALSE(injector.shouldInject(kPoolWorkerStall, "", key));
    }
}

TEST_F(FaultTest, InjectCountsPerSite)
{
    auto &injector = FaultInjector::instance();
    ASSERT_TRUE(injector.configure("seed=1; sram.bank_read=1").ok());
    EXPECT_EQ(injector.injectedCount(kSramBankRead), 0u);
    EXPECT_TRUE(injector.inject(kSramBankRead, "", 1));
    EXPECT_TRUE(injector.inject(kSramBankRead, "", 2));
    EXPECT_EQ(injector.injectedCount(kSramBankRead), 2u);
    EXPECT_EQ(injector.injectedCount(kCacheCorrupt), 0u);
}

TEST_F(FaultTest, KnownSitesListsAllFive)
{
    const auto &sites = knownSites();
    ASSERT_EQ(sites.size(), 5u);
    EXPECT_EQ(sites[0], kSramBankRead);
    EXPECT_EQ(sites[1], kAccelStepTimeout);
    EXPECT_EQ(sites[2], kCacheCorrupt);
    EXPECT_EQ(sites[3], kPoolWorkerStall);
    EXPECT_EQ(sites[4], kServeChipDown);
}

} // namespace
} // namespace cfconv::fault
