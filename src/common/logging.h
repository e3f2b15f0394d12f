/**
 * @file
 * gem5-style status and error reporting: inform/warn for status, fatal for
 * user errors (clean exit), panic for internal invariant violations (abort).
 * The status channels have no levels: inform() and warn() always print.
 */

#ifndef CFCONV_COMMON_LOGGING_H
#define CFCONV_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cfconv {

/** Exception thrown by fatal() so callers/tests can intercept user errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic() on internal invariant violations. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail {

std::string vformat(const char *fmt, std::va_list args);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Report a condition that is the user's fault (bad configuration, invalid
 * arguments). Throws FatalError; never returns.
 */
[[noreturn]] void fatalMsg(const std::string &msg);

/**
 * Report an internal simulator bug (a condition that should never happen
 * regardless of user input). Throws PanicError; never returns.
 */
[[noreturn]] void panicMsg(const std::string &msg);

/** Print an informational status message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about possibly-imprecise behaviour to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style fatal(). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0) {
        fatalMsg(std::string(fmt));
    } else {
        fatalMsg(detail::format(fmt, args...));
    }
}

/** printf-style panic(). */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0) {
        panicMsg(std::string(fmt));
    } else {
        panicMsg(detail::format(fmt, args...));
    }
}

/** fatal() unless @p cond holds. */
#define CFCONV_FATAL_IF(cond, ...)                                          \
    do {                                                                    \
        if (cond)                                                           \
            ::cfconv::fatal(__VA_ARGS__);                                   \
    } while (0)

/** panic() unless @p cond holds; use for internal invariants. */
#define CFCONV_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond))                                                        \
            ::cfconv::panic("assertion failed: " #cond " " __VA_ARGS__);    \
    } while (0)

} // namespace cfconv

#endif // CFCONV_COMMON_LOGGING_H
