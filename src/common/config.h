/**
 * @file
 * Minimal key=value configuration files for the simulators: lets
 * experiments live in checked-in .cfg files instead of recompiles.
 * Syntax: one `key = value` per line, `#` comments, blank lines
 * ignored. Unknown keys are detectable so configs fail loudly. Every
 * failure is a Status that names the line, key or path.
 */

#ifndef CFCONV_COMMON_CONFIG_H
#define CFCONV_COMMON_CONFIG_H

#include <map>
#include <set>
#include <string>

#include "common/status.h"

namespace cfconv {

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

    bool has(const std::string &key) const;

    /** Typed getters: @p fallback when the key is absent,
     *  INVALID_ARGUMENT naming key and value when it does not parse as
     *  the requested type. */
    StatusOr<long long> getInt(const std::string &key,
                               long long fallback) const;
    StatusOr<double> getDouble(const std::string &key,
                               double fallback) const;
    StatusOr<bool> getBool(const std::string &key, bool fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /**
     * Keys present in the file but never read through a getter; call
     * after configuration to catch typos (`arary = 256`).
     */
    std::set<std::string> unusedKeys() const;

    size_t size() const { return values_.size(); }

  private:
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> used_;
};

} // namespace cfconv

#endif // CFCONV_COMMON_CONFIG_H
