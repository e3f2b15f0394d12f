#include "tune/tuned_db.h"

#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/report.h"
#include "conv/algorithm.h"
#include "sim/variants.h"

namespace cfconv::tune {

std::string
TunedConfigDb::key(const std::string &family,
                   const std::string &algorithm,
                   const std::string &geometry, Index groups)
{
    return family + "|" + algorithm + "|" + geometry + "|g"
        + std::to_string(groups);
}

void
TunedConfigDb::upsert(TunedEntry entry)
{
    std::string k = key(entry.family, entry.algorithm, entry.geometry,
                        entry.groups);
    entries_[std::move(k)] = std::move(entry);
}

const TunedEntry *
TunedConfigDb::find(const std::string &family,
                    const std::string &algorithm,
                    const std::string &geometry, Index groups) const
{
    auto it = entries_.find(key(family, algorithm, geometry, groups));
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<TunedEntry>
TunedConfigDb::entries() const
{
    std::vector<TunedEntry> out;
    out.reserve(entries_.size());
    for (const auto &[k, entry] : entries_)
        out.push_back(entry);
    return out;
}

std::string
TunedConfigDb::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kSchemaName);
    w.field("version", kSchemaVersion);
    w.key("entries");
    w.beginArray();
    for (const auto &[k, e] : entries_) {
        w.beginObject();
        w.field("family", e.family);
        w.field("algorithm", e.algorithm);
        w.field("geometry", e.geometry);
        w.field("groups", static_cast<long long>(e.groups));
        w.field("variant", e.variant);
        w.field("baseline", e.baseline);
        w.field("tuned_seconds", e.tunedSeconds);
        w.field("baseline_seconds", e.baselineSeconds);
        w.field("evaluations", static_cast<long long>(e.evaluations));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
TunedConfigDb::saveFile(const std::string &path) const
{
    return atomicWriteFileChecksummed(path, toJson() + "\n");
}

namespace {

/** Per-entry validity: the reason the entry is stale/invalid, or
 *  nullptr when it can be trusted against the variant table. */
const char *
entryProblem(const TunedEntry &e)
{
    if (e.family != "tpu" && e.family != "gpu")
        return "unknown backend family";
    if (conv::findAlgorithm(e.algorithm) == nullptr)
        return "unknown algorithm";
    if (e.geometry.empty())
        return "empty geometry";
    if (e.groups < 1)
        return "non-positive groups";
    const sim::VariantSpec *variant = sim::findVariant(e.variant);
    if (variant == nullptr)
        return "unknown variant";
    if (e.family != sim::backendFamilyName(variant->backend))
        return "variant of another family";
    const sim::VariantSpec *baseline = sim::findVariant(e.baseline);
    if (baseline == nullptr)
        return "unknown baseline";
    if (e.family != sim::backendFamilyName(baseline->backend))
        return "baseline of another family";
    if (!(e.tunedSeconds > 0.0) || !(e.baselineSeconds > 0.0))
        return "non-positive seconds";
    return nullptr;
}

} // namespace

StatusOr<DbLoadStats>
TunedConfigDb::loadFile(const std::string &path)
{
    CFCONV_ASSIGN_OR_RETURN(std::string text, readFileVerified(path));
    CFCONV_ASSIGN_OR_RETURN(JsonValue doc, parseJson(text));
    if (!doc.isObject())
        return invalidArgumentError(
            "tuned db '%s': document is not an object", path.c_str());
    const std::string schema = doc.stringOr("schema", "");
    if (schema != kSchemaName)
        return invalidArgumentError(
            "tuned db '%s': schema '%s', expected '%s'", path.c_str(),
            schema.c_str(), kSchemaName);
    const long long version =
        static_cast<long long>(doc.numberOr("version", 0));
    if (version != kSchemaVersion)
        return invalidArgumentError(
            "tuned db '%s': schema version %lld, expected %lld",
            path.c_str(), version, kSchemaVersion);
    const JsonValue *entries = doc.get("entries");
    if (entries == nullptr || !entries->isArray())
        return invalidArgumentError(
            "tuned db '%s': missing 'entries' array", path.c_str());

    DbLoadStats stats;
    for (const JsonValue &item : entries->items()) {
        if (!item.isObject()) {
            ++stats.rejected;
            std::fprintf(stderr,
                         "# tuned db %s: skipping non-object entry\n",
                         path.c_str());
            continue;
        }
        TunedEntry e;
        e.family = item.stringOr("family", "");
        e.algorithm = item.stringOr("algorithm", "");
        e.geometry = item.stringOr("geometry", "");
        e.groups = static_cast<Index>(item.numberOr("groups", 1));
        e.variant = item.stringOr("variant", "");
        e.baseline = item.stringOr("baseline", "");
        e.tunedSeconds = item.numberOr("tuned_seconds", 0.0);
        e.baselineSeconds = item.numberOr("baseline_seconds", 0.0);
        e.evaluations =
            static_cast<Index>(item.numberOr("evaluations", 0));
        if (const char *problem = entryProblem(e)) {
            ++stats.rejected;
            std::fprintf(
                stderr,
                "# tuned db %s: rejecting entry '%s' (%s): %s\n",
                path.c_str(), e.geometry.c_str(), e.variant.c_str(),
                problem);
            continue;
        }
        upsert(std::move(e));
        ++stats.loaded;
    }
    return stats;
}

DbLoadStats
TunedConfigDb::loadOrRecover(const std::string &path)
{
    auto loaded = loadFile(path);
    if (loaded.ok())
        return *loaded;
    DbLoadStats stats;
    if (loaded.status().code() == StatusCode::kNotFound) {
        stats.fresh = true;
        return stats;
    }
    // Torn or structurally invalid: discard the file so the next save
    // starts clean, and surface the recovery in the metrics.
    std::fprintf(stderr, "# tuned db %s: %s — discarding and rebuilding\n",
                 path.c_str(), loaded.status().message().c_str());
    std::remove(path.c_str());
    MetricsRegistry::instance().add("persist.recovered", 1.0);
    stats.recovered = true;
    return stats;
}

} // namespace cfconv::tune
