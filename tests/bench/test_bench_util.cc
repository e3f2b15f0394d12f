/** @file Regression tests for the uniform bench argument parser
 *  (bench/bench_util.h): whole-integer thread counts, the workload keys
 *  (seed=, stream=) added for bench_serving, and the strict
 *  unknown-argument policy. */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"

namespace cfconv::bench {
namespace {

Status
parse(std::vector<const char *> argv, BenchArgs *args,
      bool supports_json = true, bool supports_workload = false,
      bool supports_algo = false)
{
    argv.insert(argv.begin(), "bench");
    return tryParseBenchArgs(static_cast<int>(argv.size()),
                             const_cast<char **>(argv.data()),
                             supports_json, args, supports_workload,
                             supports_algo);
}

TEST(BenchArgsParse, ParsesCoreKeys)
{
    BenchArgs args;
    ASSERT_TRUE(parse({"threads=4", "json=out.json",
                       "trace=t.json"},
                      &args)
                    .ok());
    EXPECT_EQ(args.threads, 4);
    EXPECT_EQ(args.jsonPath, "out.json");
    EXPECT_EQ(args.tracePath, "t.json");
    EXPECT_EQ(args.seed, 0u);
    EXPECT_TRUE(args.stream.empty());
}

TEST(BenchArgsParse, WorkloadKeysNeedOptIn)
{
    BenchArgs args;
    // Without supports_workload, seed=/stream= are unknown arguments.
    EXPECT_FALSE(parse({"seed=7"}, &args).ok());
    EXPECT_FALSE(parse({"stream=bursty"}, &args).ok());

    ASSERT_TRUE(
        parse({"seed=7", "stream=bursty"}, &args, true, true).ok());
    EXPECT_EQ(args.seed, 7u);
    EXPECT_EQ(args.stream, "bursty");
}

TEST(BenchArgsParse, RejectsMalformedSeeds)
{
    BenchArgs args;
    for (const char *bad :
         {"seed=", "seed=0", "seed=abc", "seed=12x"}) {
        Status status = parse({bad}, &args, true, true);
        EXPECT_FALSE(status.ok()) << bad;
        EXPECT_NE(status.toString().find("seed"), std::string::npos)
            << bad;
    }
}

TEST(BenchArgsParse, ThreadsMustBeAWholeIntegerOfAtLeastOne)
{
    // Parse only: a pool of the parsed size is never started here.
    for (const char *bad :
         {"threads=", "threads=0", "threads=-2", "threads=4x",
          "threads=2.5", "threads= 4", "threads=abc",
          "threads=99999999999999999999"}) {
        BenchArgs args;
        const Status status = parse({bad}, &args);
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
        EXPECT_NE(status.toString().find(bad), std::string::npos)
            << status.toString();
    }
    BenchArgs args;
    ASSERT_TRUE(parse({"threads=3"}, &args).ok());
    EXPECT_EQ(args.threads, 3);
    // The environment reader takes the same spellings.
    EXPECT_EQ(parallel::parseThreadCount("12"), 12);
    EXPECT_EQ(parallel::parseThreadCount("4x"), 0);
    EXPECT_EQ(parallel::parseThreadCount("2.5"), 0);
    EXPECT_EQ(parallel::parseThreadCount(""), 0);
}

TEST(BenchArgsParse, RejectsEmptyStream)
{
    BenchArgs args;
    EXPECT_FALSE(parse({"stream="}, &args, true, true).ok());
}

TEST(BenchArgsParse, AlgoKeyNeedsOptIn)
{
    BenchArgs args;
    // Without supports_algo, algo= is an unknown argument, and the
    // menu in the error does not advertise it.
    Status status = parse({"algo=indirect"}, &args);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.toString().find("algo=NAME"), std::string::npos);

    for (const char *name :
         {"channel-first", "channel-last", "explicit-im2col",
          "indirect", "smm"}) {
        BenchArgs parsed;
        const std::string arg = std::string("algo=") + name;
        ASSERT_TRUE(
            parse({arg.c_str()}, &parsed, true, false, true).ok())
            << name;
        EXPECT_EQ(parsed.algo, name);
    }
}

TEST(BenchArgsParse, RejectsUnknownAndMalformedAlgos)
{
    BenchArgs args;
    for (const char *bad : {"algo=", "algo=winograd", "algo=SMM"}) {
        Status status = parse({bad}, &args, true, false, true);
        ASSERT_FALSE(status.ok()) << bad;
        const std::string message = status.toString();
        // The error names the offender and lists the known spellings,
        // matching the seed=/stream= contract.
        EXPECT_NE(message.find("algo="), std::string::npos) << bad;
        EXPECT_NE(message.find("channel-first"), std::string::npos)
            << bad;
    }
}

TEST(BenchArgsParse, UnknownArgumentNamesItselfAndTheMenu)
{
    BenchArgs args;
    Status status = parse({"btach=4"}, &args, true, true);
    ASSERT_FALSE(status.ok());
    const std::string message = status.toString();
    EXPECT_NE(message.find("btach=4"), std::string::npos);
    EXPECT_NE(message.find("seed=N"), std::string::npos);
    EXPECT_NE(message.find("stream=NAME"), std::string::npos);
}

TEST(BenchArgsParse, JsonStaysGatedBySupportsJson)
{
    BenchArgs args;
    EXPECT_FALSE(parse({"json=out.json"}, &args, false).ok());
    Status status = parse({"nope=1"}, &args, false);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.toString().find("json=FILE"), std::string::npos);
}

} // namespace
} // namespace cfconv::bench
