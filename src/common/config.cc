#include "common/config.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace cfconv {

namespace {

std::string
strip(const std::string &s)
{
    const size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

StatusOr<Config>
Config::fromString(const std::string &text)
{
    Config config;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string stripped = strip(line);
        if (stripped.empty())
            continue;
        const size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            return invalidArgumentError(
                "config line %d: expected 'key = value', got '%s'",
                line_no, stripped.c_str());
        const std::string key = strip(stripped.substr(0, eq));
        const std::string value = strip(stripped.substr(eq + 1));
        if (key.empty())
            return invalidArgumentError("config line %d: empty key",
                                        line_no);
        if (config.values_.count(key) > 0)
            return invalidArgumentError(
                "config line %d: duplicate key '%s'", line_no,
                key.c_str());
        config.values_[key] = value;
    }
    return config;
}

StatusOr<Config>
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return notFoundError("config: cannot open '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = fromString(buffer.str());
    if (!parsed.ok())
        return parsed.status().withContext(path);
    return parsed;
}

const std::string *
Config::find(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    used_.insert(key);
    return &it->second;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

StatusOr<long long>
Config::getInt(const std::string &key, long long fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    char *end = nullptr;
    const long long parsed = std::strtoll(v->c_str(), &end, 0);
    if (end == v->c_str() || *end != '\0')
        return invalidArgumentError(
            "config: '%s = %s' is not an integer", key.c_str(),
            v->c_str());
    return parsed;
}

StatusOr<double>
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        return invalidArgumentError("config: '%s = %s' is not a number",
                                    key.c_str(), v->c_str());
    return parsed;
}

StatusOr<bool>
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    if (*v == "true" || *v == "1" || *v == "yes")
        return true;
    if (*v == "false" || *v == "0" || *v == "no")
        return false;
    return invalidArgumentError("config: '%s = %s' is not a boolean",
                                key.c_str(), v->c_str());
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    const std::string *v = find(key);
    return v ? *v : fallback;
}

std::set<std::string>
Config::unusedKeys() const
{
    std::set<std::string> unused;
    for (const auto &[key, value] : values_)
        if (used_.count(key) == 0)
            unused.insert(key);
    return unused;
}

} // namespace cfconv
