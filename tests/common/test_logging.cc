/** @file Unit tests for the logging/error-reporting helpers. */

#include <gtest/gtest.h>

#include "common/logging.h"

namespace cfconv {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad user input %d", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("internal invariant violated"), PanicError);
}

TEST(Logging, FatalMessageIsFormatted)
{
    try {
        fatal("value %d exceeds %s", 7, "limit");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value 7 exceeds limit");
    }
}

TEST(Logging, FatalIfMacroRespectsCondition)
{
    EXPECT_NO_THROW(CFCONV_FATAL_IF(false, "never"));
    EXPECT_THROW(CFCONV_FATAL_IF(true, "always"), FatalError);
}

TEST(Logging, AssertMacroRespectsCondition)
{
    EXPECT_NO_THROW(CFCONV_ASSERT(1 + 1 == 2, "(math works)"));
    EXPECT_THROW(CFCONV_ASSERT(1 + 1 == 3, "(math broke)"), PanicError);
}

TEST(Logging, FormatHandlesLongStrings)
{
    const std::string long_str(500, 'x');
    const std::string out = detail::format("%s", long_str.c_str());
    EXPECT_EQ(out.size(), 500u);
}

TEST(Logging, InformAndWarnAlwaysPrintTheirPrefixedLines)
{
    ::testing::internal::CaptureStderr();
    inform("status line %d", 1);
    warn("warning line %d", 2);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "info: status line 1\nwarn: warning line 2\n");
}

} // namespace
} // namespace cfconv
