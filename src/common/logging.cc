#include "common/logging.h"

#include <cstdarg>
#include <vector>

namespace cfconv {

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
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

} // namespace cfconv
