/** @file Tests for the key=value configuration parser and the TPU
 *  config adapter. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "tensor/conv_params.h"
#include "tpusim/tpu_config.h"
#include "tpusim/tpu_sim.h"

namespace cfconv {
namespace {

/** @p text parsed; the test fails if it does not parse. */
Config
parse(const std::string &text)
{
    StatusOr<Config> parsed = Config::fromString(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().toString();
    return parsed.ok() ? std::move(parsed).value() : Config();
}

/** Expect @p status to be INVALID_ARGUMENT with @p needle in its
 *  message. */
void
expectInvalid(const Status &status, const std::string &needle)
{
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.toString();
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.toString();
}

TEST(Config, ParsesTypedValues)
{
    const Config c = parse(
        "array = 256\n"
        "clock_ghz = 0.94   # comment\n"
        "name = tpu-v3ish\n"
        "overlap = true\n"
        "\n"
        "# full-line comment\n");
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.getInt("array", 0).value(), 256);
    EXPECT_DOUBLE_EQ(c.getDouble("clock_ghz", 0.0).value(), 0.94);
    EXPECT_EQ(c.getString("name", "").value(), "tpu-v3ish");
    EXPECT_TRUE(c.getBool("overlap", false).value());
}

TEST(Config, FallbacksForMissingKeys)
{
    const Config c = parse("a = 1\n");
    EXPECT_EQ(c.getInt("missing", 42).value(), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 2.5).value(), 2.5);
    EXPECT_FALSE(c.getBool("missing", false).value());
    EXPECT_EQ(c.getString("missing", "x").value(), "x");
    EXPECT_FALSE(c.has("missing"));
    EXPECT_TRUE(c.has("a"));
}

TEST(Config, RejectsMalformedInput)
{
    expectInvalid(Config::fromString("just a line\n").status(),
                  "line 1: expected 'key = value'");
    expectInvalid(Config::fromString("= value\n").status(),
                  "line 1: empty key");
    expectInvalid(Config::fromString("a = 1\na = 2\n").status(),
                  "line 2: duplicate key 'a'");
}

TEST(Config, RejectsWrongTypes)
{
    const Config c = parse("k = hello\n");
    expectInvalid(c.getInt("k", 0).status(),
                  "'k = hello' is not an integer");
    expectInvalid(c.getDouble("k", 0.0).status(),
                  "'k = hello' is not a number");
    expectInvalid(c.getBool("k", false).status(),
                  "'k = hello' is not a boolean");
}

TEST(Config, TracksUnusedKeys)
{
    const Config c = parse("a = 1\nb = 2\n");
    EXPECT_EQ(c.getInt("a", 0).value(), 1);
    expectInvalid(c.checkAllRead(),
                  "unknown key 'b' (config: 'b = 2'; known: a)");
    EXPECT_EQ(c.getInt("b", 0).value(), 2);
    EXPECT_TRUE(c.checkAllRead().ok());
}

TEST(Config, IntegersAreWholeDecimals)
{
    // Leading zeros do not make octal; a base prefix, a trailing
    // letter, a space or an empty value is not an integer.
    EXPECT_EQ(parse("array = 010\n").getInt("array", 0).value(), 10);
    EXPECT_EQ(parse("array = -3\n").getInt("array", 0).value(), -3);
    for (const char *bad : {"0x40", "4x", "+4", "1e3"})
        expectInvalid(
            parse(std::string("array = ") + bad + "\n")
                .getInt("array", 0)
                .status(),
            std::string("'array = ") + bad + "' is not an integer");
    // A file strips its values, so the space and the empty value come
    // from the command line.
    for (const char *bad : {"array= 4", "array="}) {
        const char *argv[] = {"prog", bad};
        const StatusOr<Config> args = Config::fromArgs(2, argv);
        ASSERT_TRUE(args.ok()) << args.status().toString();
        expectInvalid(args->getInt("array", 0).status(),
                      std::string("argument: '") + bad +
                          "' is not an integer");
    }
    EXPECT_EQ(parseDecimal("010"), 10);
    EXPECT_EQ(parseDecimal("99999999999999999999"), std::nullopt);
}

TEST(Config, NumbersAreWholeDecimals)
{
    // A point and an exponent are decimal; a hex float, a sign or a
    // space, a trailing letter, inf, nan or an out-of-range exponent
    // is not a number.
    EXPECT_EQ(parse("k = 010.5\n").getDouble("k", 0.0).value(), 10.5);
    EXPECT_EQ(parse("k = -2e3\n").getDouble("k", 0.0).value(), -2000.0);
    for (const char *bad :
         {"0x1p10", "+900", "900x", "inf", "nan", "1e999", "0x40"})
        expectInvalid(
            parse(std::string("k = ") + bad + "\n")
                .getDouble("k", 0.0)
                .status(),
            std::string("'k = ") + bad + "' is not a number");
    for (const char *bad : {"gbps= 900", "gbps=900 ", "gbps="}) {
        const char *argv[] = {"prog", bad};
        const StatusOr<Config> args = Config::fromArgs(2, argv);
        ASSERT_TRUE(args.ok()) << args.status().toString();
        expectInvalid(args->getDouble("gbps", 0.0).status(),
                      std::string("argument: '") + bad +
                          "' is not a number");
    }
    // The numbers of the checked-in configs, the benchmark's fault
    // spec and serving classes read as strtod read them.
    for (const char *text : {"0.7", "0.94", "701.44", "901.12", "128",
                             "32", "0.3", "0.01", "0.5", "2", "50",
                             "100", "250"})
        EXPECT_EQ(parseDecimalDouble(text), std::strtod(text, nullptr))
            << text;
}

TEST(Config, ArgumentsAreKeyValuePairs)
{
    const char *argv[] = {"prog", "n=8", "algo=channel-last", "json=a=b",
                          "s2d=on"};
    const StatusOr<Config> args = Config::fromArgs(5, argv);
    ASSERT_TRUE(args.ok()) << args.status().toString();
    EXPECT_EQ(args->getInt("n", 0).value(), 8);
    EXPECT_EQ(args->getString("algo", "").value(), "channel-last");
    EXPECT_EQ(args->getString("json", "").value(), "a=b");
    EXPECT_TRUE(args->getBool("s2d", false).value());
    EXPECT_TRUE(args->checkAllRead().ok());

    // An argument without '=', or with a key that is not a name, is
    // an error unless the caller takes operands.
    for (const char *bad : {"8", "--benchmark_filter=BM_X", "=4"}) {
        const char *one[] = {"prog", bad};
        expectInvalid(Config::fromArgs(2, one).status(),
                      std::string("argument '") + bad +
                          "' is not key=value");
        std::vector<std::string> operands;
        ASSERT_TRUE(Config::fromArgs(2, one, &operands).ok()) << bad;
        EXPECT_EQ(operands, std::vector<std::string>{bad});
    }
}

TEST(Config, ArgumentsRejectARepeatedKey)
{
    const char *argv[] = {"prog", "threads=2", "threads=4"};
    expectInvalid(Config::fromArgs(3, argv).status(),
                  "argument 'threads=4' repeats the key threads");
}

TEST(Config, AnUnreadArgumentIsNamedWithTheKnownKeys)
{
    const char *argv[] = {"prog", "arary=256", "word=4"};
    const StatusOr<Config> args = Config::fromArgs(3, argv);
    ASSERT_TRUE(args.ok());
    EXPECT_EQ(args->getInt("array", 128).value(), 128);
    EXPECT_EQ(args->getInt("word", 8).value(), 4);
    expectInvalid(args->checkAllRead(),
                  "unknown key 'arary' (argument: 'arary=256'; known: "
                  "array, word)");
}

TEST(Config, MissingFileIsFatal)
{
    // NOT_FOUND, naming the path.
    const Status status =
        Config::fromFile("/nonexistent/path.cfg").status();
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.toString();
    EXPECT_NE(status.message().find("/nonexistent/path.cfg"),
              std::string::npos)
        << status.toString();
}

TEST(Config, SplitListKeepsEveryPieceAndStripTrims)
{
    using Pieces = std::vector<std::string>;
    EXPECT_EQ(splitList("a,,b", ','), (Pieces{"a", "", "b"}));
    EXPECT_EQ(splitList("", ','), (Pieces{""}));
    EXPECT_EQ(splitList("a:", ':'), (Pieces{"a", ""}));
    EXPECT_EQ(splitList(";seed=1", ';'), (Pieces{"", "seed=1"}));
    EXPECT_EQ(strip(" \t key = 1\r"), "key = 1");
    EXPECT_EQ(strip(" \t\r"), "");
}

TEST(TpuConfigFrom, AppliesOverrides)
{
    const Config c = parse(
        "array = 256\n"
        "clock_ghz = 0.94\n"
        "dram_gbps = 900\n");
    const tpusim::TpuConfig cfg = tpusim::tpuConfigFrom(c).value();
    EXPECT_EQ(cfg.array.rows, 256);
    EXPECT_DOUBLE_EQ(cfg.clockGhz, 0.94);
    EXPECT_NEAR(cfg.dram.peakGBps(), 900.0, 1.0);
    // Untouched fields keep their TPU-v2 defaults.
    EXPECT_EQ(cfg.wordElems, 8);
    // One vector memory per PE row: 256 of them split the unchanged
    // 32 MB, and a layer's port utilization counts all 256.
    EXPECT_EQ(cfg.perArrayBytes(), (32ULL << 20) / 256);
    const tpusim::TpuLayerResult r = tpusim::TpuSim(cfg).runConv(
        tensor::makeConv(8, 128, 56, 256, 3, 1, 1));
    EXPECT_EQ(r.portUtilization, static_cast<double>(r.vecMemOps) /
                                     (static_cast<double>(r.cycles) * 256));
}

TEST(TpuConfigFrom, EmptyConfigIsIdentity)
{
    const tpusim::TpuConfig base = tpusim::TpuConfig::tpuV2();
    const tpusim::TpuConfig cfg = tpusim::tpuConfigFrom(parse("")).value();
    EXPECT_EQ(cfg.array.rows, base.array.rows);
    EXPECT_DOUBLE_EQ(cfg.clockGhz, base.clockGhz);
    EXPECT_EQ(cfg.onChipBytes, base.onChipBytes);
}

TEST(TpuConfigFrom, UnknownKeysAreFatal)
{
    // INVALID_ARGUMENT naming the key, and so is a value that does not
    // parse.
    expectInvalid(tpusim::tpuConfigFrom(parse("arary = 256\n")).status(),
                  "unknown key 'arary'");
    expectInvalid(tpusim::tpuConfigFrom(parse("array = big\n")).status(),
                  "'array = big' is not an integer");
}

TEST(TpuConfigFrom, OutOfRangeValuesNameTheKey)
{
    // Each used to abort, divide by zero, wrap or report an infinite
    // peak fraction; now INVALID_ARGUMENT names the key and the value.
    for (const char *line :
         {"array = 0", "word_elems = 0", "elem_bytes = 0", "mxus = 0",
          "onchip_mb = 0", "onchip_mb = -1", "onchip_mb = 17592186044416",
          "clock_ghz = 0", "clock_ghz = nan", "dram_gbps = 0",
          "dram_gbps = -700", "dram_gbps = inf",
          "invoke_overhead_cycles = -5"})
        expectInvalid(
            tpusim::tpuConfigFrom(parse(std::string(line) + "\n")).status(),
            line);
    // The edges of each range are accepted.
    EXPECT_TRUE(tpusim::tpuConfigFrom(parse("array = 1\nmxus = 1\n"
                                            "onchip_mb = 1\n"
                                            "invoke_overhead_cycles = 0\n"))
                    .ok());
}

} // namespace
} // namespace cfconv
