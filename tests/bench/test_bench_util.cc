/** @file Regression tests for the bench command line (bench/bench_util.h
 *  over common/config): whole-integer thread counts, the keys only
 *  some benches read (seed=, stream=, algo=, json=), and the strict
 *  unknown-key policy. Each test reads the keys a bench reads, in the
 *  order its main() does, then readBenchArgs(). */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"

namespace cfconv::bench {
namespace {

/** @p argv (without the program name) as a bench command line. */
Config
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "bench");
    StatusOr<Config> parsed =
        Config::fromArgs(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(parsed.ok()) << parsed.status().toString();
    return parsed.ok() ? std::move(parsed).value() : Config();
}

/** What bench_serving reads: json=, seed=, stream= and classes=, then
 *  the keys every bench takes. */
Status
readServingArgs(const Config &args)
{
    CFCONV_RETURN_IF_ERROR(args.getString("json", "out.json").status());
    CFCONV_RETURN_IF_ERROR(positiveInt(args, "seed", 42).status());
    CFCONV_RETURN_IF_ERROR(args.getString("stream", "poisson").status());
    CFCONV_RETURN_IF_ERROR(args.getString("classes", "alexnet").status());
    return readBenchArgs(args).status();
}

TEST(BenchArgsParse, ParsesCoreKeys)
{
    const Config args =
        parse({"threads=4", "json=out.json", "trace=t.json"});
    EXPECT_EQ(args.getString("json", "").value(), "out.json");
    const StatusOr<BenchArgs> bench = readBenchArgs(args);
    ASSERT_TRUE(bench.ok()) << bench.status().toString();
    EXPECT_EQ(bench->threads, 4);
    EXPECT_EQ(bench->tracePath, "t.json");
    EXPECT_TRUE(bench->faultsSpec.empty());
    EXPECT_TRUE(bench->metricsPath.empty());
}

TEST(BenchArgsParse, WorkloadKeysNeedOptIn)
{
    // A bench that reads no seed= or stream= rejects them as unknown.
    EXPECT_FALSE(readBenchArgs(parse({"seed=7"})).ok());
    EXPECT_FALSE(readBenchArgs(parse({"stream=bursty"})).ok());

    const Config args = parse({"seed=7", "stream=bursty"});
    EXPECT_EQ(positiveInt(args, "seed", 42).value(), 7);
    EXPECT_EQ(args.getString("stream", "poisson").value(), "bursty");
    EXPECT_TRUE(readBenchArgs(args).ok());
}

TEST(BenchArgsParse, RejectsMalformedSeeds)
{
    for (const char *bad :
         {"seed=", "seed=0", "seed=abc", "seed=12x", "seed=-3",
          "seed=0x10"}) {
        const Status status = readServingArgs(parse({bad}));
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
        EXPECT_NE(status.toString().find(bad), std::string::npos)
            << status.toString();
    }
}

TEST(BenchArgsParse, ThreadsMustBeAWholeIntegerOfAtLeastOne)
{
    // Parse only: a pool of the parsed size is never started here.
    for (const char *bad :
         {"threads=", "threads=0", "threads=-2", "threads=4x",
          "threads=2.5", "threads= 4", "threads=abc", "threads=0x4",
          "threads=99999999999999999999"}) {
        const Status status = readBenchArgs(parse({bad})).status();
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
        EXPECT_NE(status.toString().find(bad), std::string::npos)
            << status.toString();
    }
    const StatusOr<BenchArgs> bench = readBenchArgs(parse({"threads=3"}));
    ASSERT_TRUE(bench.ok());
    EXPECT_EQ(bench->threads, 3);
    // Leading zeros stay decimal, as everywhere else.
    EXPECT_EQ(readBenchArgs(parse({"threads=010"}))->threads, 10);
    // CFCONV_THREADS is read by the same rule.
    EXPECT_EQ(parseDecimal("12"), 12);
    EXPECT_EQ(parseDecimal("010"), 10);
    EXPECT_EQ(parseDecimal("4x"), std::nullopt);
    EXPECT_EQ(parseDecimal("2.5"), std::nullopt);
    EXPECT_EQ(parseDecimal(""), std::nullopt);
}

TEST(BenchArgsParse, RejectsEmptyStream)
{
    const Status status = readServingArgs(parse({"stream="}));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.toString().find("stream="), std::string::npos)
        << status.toString();
}

TEST(BenchArgsParse, AlgoKeyNeedsOptIn)
{
    // A bench that reads no algo= rejects it, and the keys its error
    // lists do not include algo.
    const std::string message =
        readBenchArgs(parse({"algo=indirect"})).status().toString();
    ASSERT_NE(message.find("algo=indirect"), std::string::npos);
    ASSERT_NE(message.find("known:"), std::string::npos);
    EXPECT_EQ(message.find("algo", message.find("known:")),
              std::string::npos)
        << message;

    for (const char *name :
         {"channel-first", "channel-last", "explicit-im2col",
          "indirect", "smm"}) {
        const std::string arg = std::string("algo=") + name;
        const Config args = parse({arg.c_str()});
        EXPECT_EQ(algoArg(args).value(), name);
        EXPECT_TRUE(readBenchArgs(args).ok()) << name;
    }
    EXPECT_EQ(algoArg(parse({})).value(), "");
}

TEST(BenchArgsParse, RejectsUnknownAndMalformedAlgos)
{
    for (const char *bad : {"algo=", "algo=winograd", "algo=SMM"}) {
        const Status status = algoArg(parse({bad})).status();
        ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
        // The error names the offender ...
        EXPECT_NE(status.toString().find(bad), std::string::npos)
            << status.toString();
    }
    // ... and a name that is not an algorithm lists the known ones.
    const Status status = algoArg(parse({"algo=winograd"})).status();
    EXPECT_NE(status.toString().find("bad algo=winograd"),
              std::string::npos);
    EXPECT_NE(status.toString().find("channel-first"), std::string::npos);
}

TEST(BenchArgsParse, UnknownArgumentNamesItselfAndTheMenu)
{
    const Status status = readServingArgs(parse({"btach=4"}));
    ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
    const std::string message = status.toString();
    EXPECT_NE(message.find("btach=4"), std::string::npos) << message;
    // The menu is the keys the bench read.
    for (const char *key :
         {"classes", "faults", "json", "metrics", "seed", "stream",
          "threads", "trace"})
        EXPECT_NE(message.find(key), std::string::npos) << key;
}

TEST(BenchArgsParse, JsonStaysGatedBySupportsJson)
{
    // json= is read only by the benches that write a report.
    EXPECT_FALSE(readBenchArgs(parse({"json=out.json"})).ok());
    const Status status = readBenchArgs(parse({"nope=1"})).status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.toString().find("json"), std::string::npos);

    const Config args = parse({"json=out.json"});
    EXPECT_EQ(args.getString("json", "BENCH.json").value(), "out.json");
    EXPECT_TRUE(readBenchArgs(args).ok());
    // An empty path names the key instead of writing nowhere.
    const Config empty = parse({"json="});
    EXPECT_NE(empty.getString("json", "BENCH.json")
                  .status()
                  .toString()
                  .find("json="),
              std::string::npos);
}

} // namespace
} // namespace cfconv::bench
