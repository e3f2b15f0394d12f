/**
 * @file
 * Minimal key=value configuration, the one reader of the simulators'
 * checked-in .cfg files and of every binary's command line. Files hold
 * one `key = value` per line, `#` comments and blank lines; a command
 * line holds one `key=value` per argument. Typed getters name the key
 * and the value they reject, and checkAllRead() catches typos. Every
 * failure is a Status that names the line, key, argument or path.
 */

#ifndef CFCONV_COMMON_CONFIG_H
#define CFCONV_COMMON_CONFIG_H

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cfconv {

/** @p text read whole as a decimal integer (std::from_chars: no base
 *  prefix, '+' or spaces), else nullopt: the one integer rule of config
 *  files, command lines and CFCONV_THREADS. */
std::optional<long long> parseDecimal(std::string_view text);

/** @p text read whole as a finite decimal number (std::from_chars:
 *  digits with an optional '-', point and exponent; no base prefix,
 *  '+', spaces, inf or nan), else nullopt: the one number rule of
 *  config files, command lines, fault specs and serving class specs. */
std::optional<double> parseDecimalDouble(std::string_view text);

/** @p s without its leading and trailing spaces, tabs and carriage
 *  returns: the one trim of config lines, fault specs and their lists. */
std::string strip(const std::string &s);

/** @p text cut at every @p sep, empty pieces kept ("a,,b" gives "a",
 *  "" and "b"; "" gives one empty piece): the one list splitter of
 *  fault specs and serving class specs, which name an empty piece. */
std::vector<std::string> splitList(const std::string &text, char sep);

/** A parsed key=value configuration. */
class Config
{
  public:
    Config() = default;

    /** Parse from file contents. The error names the offending line
     *  and key (INVALID_ARGUMENT). */
    static StatusOr<Config> fromString(const std::string &text);

    /** Parse from a file on disk; NOT_FOUND when unreadable, parse
     *  errors as fromString() annotated with the path. */
    static StatusOr<Config> fromFile(const std::string &path);

    /** Parse argv[1..argc) as `key=value` arguments, a key being
     *  [a-z0-9_]+. Any other argument (a path, a `--flag`) is an operand,
     *  appended to @p operands when given, otherwise INVALID_ARGUMENT,
     *  as is a repeated key. */
    static StatusOr<Config>
    fromArgs(int argc, const char *const *argv,
             std::vector<std::string> *operands = nullptr);

    bool has(const std::string &key) const { return values_.count(key); }

    /** Set @p key to @p value, as a file line `key = value` would. */
    void
    set(const std::string &key, const std::string &value)
    {
        values_[key] = value;
    }

    /** Typed getters: @p fallback when the key is absent,
     *  INVALID_ARGUMENT naming key and value when it does not parse as
     *  the requested type. An integer is parseDecimal()'s; a boolean is
     *  true/1/yes/on or false/0/no/off; a string is any non-empty
     *  value. */
    StatusOr<long long> getInt(const std::string &key,
                               long long fallback) const;
    StatusOr<double> getDouble(const std::string &key,
                               double fallback) const;
    StatusOr<bool> getBool(const std::string &key, bool fallback) const;
    StatusOr<std::string> getString(const std::string &key,
                                    const std::string &fallback) const;

    /** OK when a getter read every key; otherwise INVALID_ARGUMENT
     *  naming the first unread key, a typo such as `arary = 256`, with
     *  the keys the getters asked for. Call once every key was asked. */
    Status checkAllRead() const;

    size_t size() const { return values_.size(); }

  private:
    const std::string *find(const std::string &key) const;
    /** @p key and its value as their source spells them. */
    std::string quoted(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> asked_;
    bool fromArgs_ = false;
};

} // namespace cfconv

#endif // CFCONV_COMMON_CONFIG_H
