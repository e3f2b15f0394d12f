#include "common/fault.h"

#include <set>

#include "common/config.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"

namespace cfconv::fault {

namespace {

StatusOr<double>
parseDouble(const std::string &key, const std::string &value)
{
    if (const std::optional<double> parsed = parseDecimalDouble(value))
        return *parsed;
    return invalidArgumentError("faults: '%s=%s' is not a number",
                                key.c_str(), value.c_str());
}

StatusOr<long long>
parseInt(const std::string &key, const std::string &value)
{
    if (const std::optional<long long> parsed = parseDecimal(value))
        return *parsed;
    return invalidArgumentError("faults: '%s=%s' is not an integer",
                                key.c_str(), value.c_str());
}

bool
isKnownSite(const std::string &name)
{
    for (const auto &site : knownSites())
        if (site == name)
            return true;
    return false;
}

/** Parsed form of one spec; swapped into the injector atomically so a
 *  failed configure() keeps the previous state. */
struct ParsedSpec
{
    std::uint64_t seed = 0;
    std::map<std::string, double> rates;
    ResiliencePolicy policy;
};

Status
parseSpec(const std::string &spec, ParsedSpec *out)
{
    std::set<std::string> keys;
    for (const std::string &raw_item : splitList(spec, ';')) {
        const std::string item = strip(raw_item);
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos)
            return invalidArgumentError(
                "faults: expected 'key=value', got '%s'", item.c_str());
        const std::string key = strip(item.substr(0, eq));
        const std::string value = strip(item.substr(eq + 1));
        if (key.empty())
            return invalidArgumentError("faults: empty key in '%s'",
                                        item.c_str());
        if (!keys.insert(key).second)
            return invalidArgumentError("faults: '%s' repeats the key %s",
                                        item.c_str(), key.c_str());
        if (key == "seed") {
            CFCONV_ASSIGN_OR_RETURN(const long long seed,
                                    parseInt(key, value));
            out->seed = static_cast<std::uint64_t>(seed);
        } else if (key == "max_attempts") {
            CFCONV_ASSIGN_OR_RETURN(const long long n,
                                    parseInt(key, value));
            if (n < 1)
                return invalidArgumentError(
                    "faults: 'max_attempts=%s' must be >= 1",
                    value.c_str());
            out->policy.maxAttempts = static_cast<Index>(n);
        } else if (key == "backoff_us") {
            CFCONV_ASSIGN_OR_RETURN(const double us,
                                    parseDouble(key, value));
            if (us < 0.0)
                return invalidArgumentError(
                    "faults: 'backoff_us=%s' must be >= 0",
                    value.c_str());
            out->policy.backoffSeconds = us * 1e-6;
        } else if (key == "backoff_mult") {
            CFCONV_ASSIGN_OR_RETURN(const double mult,
                                    parseDouble(key, value));
            if (mult < 1.0)
                return invalidArgumentError(
                    "faults: 'backoff_mult=%s' must be >= 1",
                    value.c_str());
            out->policy.backoffMultiplier = mult;
        } else if (key == "backoff_cap_us") {
            CFCONV_ASSIGN_OR_RETURN(const double us,
                                    parseDouble(key, value));
            if (us < 0.0)
                return invalidArgumentError(
                    "faults: 'backoff_cap_us=%s' must be >= 0",
                    value.c_str());
            out->policy.maxBackoffSeconds = us * 1e-6;
        } else if (key == "failover") {
            for (const std::string &raw_name : splitList(value, ',')) {
                const std::string name = strip(raw_name);
                if (name.empty())
                    return invalidArgumentError(
                        "faults: empty backend name in 'failover=%s'",
                        value.c_str());
                out->policy.failover.push_back(name);
            }
        } else {
            // A site, optionally scoped: "site" or "site@scope".
            const size_t at = key.find('@');
            const std::string site =
                at == std::string::npos ? key : key.substr(0, at);
            if (!isKnownSite(site)) {
                std::string known;
                for (const auto &s : knownSites())
                    known += (known.empty() ? "" : ", ") + s;
                return invalidArgumentError(
                    "faults: unknown key '%s' (sites: %s; policy: "
                    "seed, max_attempts, backoff_us, backoff_mult, "
                    "backoff_cap_us, failover)",
                    key.c_str(), known.c_str());
            }
            if (at != std::string::npos &&
                at + 1 >= key.size())
                return invalidArgumentError(
                    "faults: empty scope in '%s'", key.c_str());
            CFCONV_ASSIGN_OR_RETURN(const double rate,
                                    parseDouble(key, value));
            if (rate < 0.0 || rate > 1.0)
                return invalidArgumentError(
                    "faults: rate '%s=%s' outside [0, 1]", key.c_str(),
                    value.c_str());
            out->rates[key] = rate;
        }
    }
    return okStatus();
}

} // namespace

const std::vector<std::string> &
knownSites()
{
    static const std::vector<std::string> sites = {
        kSramBankRead,
        kAccelStepTimeout,
        kCacheCorrupt,
        kPoolWorkerStall,
        kServeChipDown,
    };
    return sites;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

Status
FaultInjector::configure(const std::string &spec)
{
    ParsedSpec parsed;
    CFCONV_RETURN_IF_ERROR(parseSpec(spec, &parsed));
    std::lock_guard<std::mutex> lock(mu_);
    seed_ = parsed.seed;
    rates_ = std::move(parsed.rates);
    policy_ = std::move(parsed.policy);
    injected_.clear();
    armed_.store(!rates_.empty(), std::memory_order_relaxed);
    return okStatus();
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lock(mu_);
    armed_.store(false, std::memory_order_relaxed);
    seed_ = 0;
    rates_.clear();
    injected_.clear();
    policy_ = ResiliencePolicy();
}

std::uint64_t
FaultInjector::seed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return seed_;
}

double
FaultInjector::rate(const std::string &site,
                    const std::string &scope) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!scope.empty()) {
        auto it = rates_.find(site + "@" + scope);
        if (it != rates_.end())
            return it->second;
    }
    auto it = rates_.find(site);
    return it == rates_.end() ? 0.0 : it->second;
}

bool
FaultInjector::shouldInject(const char *site, const std::string &scope,
                            std::uint64_t key) const
{
    if (!armed())
        return false;
    const double p = rate(site, scope);
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    // Pure per-(seed, site, scope, key) draw: SplitMix64 of the mixed
    // hash, so decisions are independent of call order and threads.
    std::uint64_t h = hashCombine(seed(), fnv1a(site));
    h = hashCombine(h, hashBytes(scope.data(), scope.size()));
    h = hashCombine(h, key);
    return Rng(h).uniform() < p;
}

bool
FaultInjector::inject(const char *site, const std::string &scope,
                      std::uint64_t key)
{
    if (!shouldInject(site, scope, key))
        return false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++injected_[site];
    }
    MetricsRegistry::instance().add(std::string("fault.injected.") +
                                        site,
                                    1.0);
    if (trace::enabled())
        trace::instant("fault", std::string(site) +
                                    (scope.empty() ? "" : "@" + scope));
    return true;
}

std::uint64_t
FaultInjector::injectedCount(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = injected_.find(site);
    return it == injected_.end() ? 0 : it->second;
}

ResiliencePolicy
FaultInjector::policy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return policy_;
}

} // namespace cfconv::fault
