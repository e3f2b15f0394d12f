#include "common/config.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace cfconv {

namespace {

/** What a command-line key is made of. */
constexpr const char *kKeyChars = "abcdefghijklmnopqrstuvwxyz0123456789_";

} // namespace

std::string
strip(const std::string &s)
{
    const size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= text.size()) {
        const size_t end = text.find(sep, begin);
        if (end == std::string::npos) {
            out.push_back(text.substr(begin));
            break;
        }
        out.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return out;
}

std::optional<long long>
parseDecimal(std::string_view text)
{
    long long value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

std::optional<double>
parseDecimalDouble(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

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

StatusOr<Config>
Config::fromArgs(int argc, const char *const *argv,
                 std::vector<std::string> *operands)
{
    Config config;
    config.fromArgs_ = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        if (eq == 0 || eq == std::string::npos ||
            arg.find_first_not_of(kKeyChars) < eq) {
            if (operands == nullptr)
                return invalidArgumentError(
                    "argument '%s' is not key=value", arg.c_str());
            operands->push_back(arg);
            continue;
        }
        const std::string key = arg.substr(0, eq);
        if (!config.values_.emplace(key, arg.substr(eq + 1)).second)
            return invalidArgumentError(
                "argument '%s' repeats the key %s", arg.c_str(),
                key.c_str());
    }
    return config;
}

const std::string *
Config::find(const std::string &key) const
{
    asked_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::quoted(const std::string &key) const
{
    return (fromArgs_ ? "argument: '" + key + "="
                      : "config: '" + key + " = ") +
           values_.at(key) + "'";
}

StatusOr<long long>
Config::getInt(const std::string &key, long long fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    if (const std::optional<long long> parsed = parseDecimal(*v))
        return *parsed;
    return invalidArgumentError("%s is not an integer",
                                quoted(key).c_str());
}

StatusOr<double>
Config::getDouble(const std::string &key, double fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    if (const std::optional<double> parsed = parseDecimalDouble(*v))
        return *parsed;
    return invalidArgumentError("%s is not a number",
                                quoted(key).c_str());
}

StatusOr<bool>
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    if (*v == "true" || *v == "1" || *v == "yes" || *v == "on")
        return true;
    if (*v == "false" || *v == "0" || *v == "no" || *v == "off")
        return false;
    return invalidArgumentError("%s is not a boolean",
                                quoted(key).c_str());
}

StatusOr<std::string>
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    const std::string *v = find(key);
    if (!v)
        return fallback;
    if (v->empty())
        return invalidArgumentError("%s has no value",
                                    quoted(key).c_str());
    return *v;
}

Status
Config::checkAllRead() const
{
    for (const auto &[key, value] : values_) {
        if (asked_.count(key) > 0)
            continue;
        std::string known;
        for (const std::string &asked : asked_)
            known += (known.empty() ? "" : ", ") + asked;
        return invalidArgumentError("unknown key '%s' (%s; known: %s)",
                                    key.c_str(), quoted(key).c_str(),
                                    known.empty() ? "none"
                                                  : known.c_str());
    }
    return okStatus();
}

} // namespace cfconv
