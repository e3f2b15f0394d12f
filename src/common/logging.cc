#include "common/logging.h"

#include <atomic>
#include <cstdarg>
#include <cstring>
#include <vector>

namespace cfconv {

namespace {

constexpr int kLevelUnset = -1;

/** Active level, or kLevelUnset until first use (then env-derived). */
std::atomic<int> levelValue{kLevelUnset};

int
envLevel()
{
    LogLevel level = LogLevel::Info;
    if (const char *env = std::getenv("CFCONV_LOG_LEVEL")) {
        if (!parseLogLevel(env, &level)) {
            std::fprintf(stderr,
                         "warn: CFCONV_LOG_LEVEL=\"%s\" is not "
                         "info/warn/error; using info\n",
                         env);
        }
    }
    return static_cast<int>(level);
}

bool
levelAllows(LogLevel at_least)
{
    return static_cast<int>(logLevel()) <= static_cast<int>(at_least);
}

} // namespace

LogLevel
logLevel()
{
    int v = levelValue.load(std::memory_order_relaxed);
    if (v == kLevelUnset) {
        v = envLevel();
        int expected = kLevelUnset;
        // First caller wins; a concurrent setLogLevel() overrides.
        levelValue.compare_exchange_strong(expected, v);
        v = levelValue.load(std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(v);
}

void
setLogLevel(LogLevel level)
{
    levelValue.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
parseLogLevel(const char *text, LogLevel *out)
{
    if (!text)
        return false;
    if (std::strcmp(text, "info") == 0 || std::strcmp(text, "INFO") == 0) {
        *out = LogLevel::Info;
    } else if (std::strcmp(text, "warn") == 0 ||
               std::strcmp(text, "WARN") == 0) {
        *out = LogLevel::Warn;
    } else if (std::strcmp(text, "error") == 0 ||
               std::strcmp(text, "ERROR") == 0 ||
               std::strcmp(text, "quiet") == 0 ||
               std::strcmp(text, "silent") == 0) {
        *out = LogLevel::Error;
    } else {
        return false;
    }
    return true;
}

namespace detail {

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
format(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformat(fmt, args);
    va_end(args);
    return s;
}

} // namespace detail

void
fatalMsg(const std::string &msg)
{
    throw FatalError(msg);
}

void
panicMsg(const std::string &msg)
{
    throw PanicError(msg);
}

void
inform(const char *fmt, ...)
{
    if (!levelAllows(LogLevel::Info))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
warn(const char *fmt, ...)
{
    if (!levelAllows(LogLevel::Warn))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

} // namespace cfconv
