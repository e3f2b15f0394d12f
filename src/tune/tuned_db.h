/**
 * @file
 * Persistent tuned-config database: the autotuner's memory across
 * processes. One TunedEntry records, for a canonical layer geometry on
 * one backend family, which named variant the search chose and
 * what it measured — so a repeat run looks the answer up instead of
 * re-searching (bench_autotune's second run performs zero search
 * evaluations). The JSON document is written deterministically
 * (entries sorted by key) via common/report's JsonWriter and read back
 * with common/json; the loader is schema-versioned and validates every
 * entry against the variant table (sim/variants.h) and the
 * conv::Algorithm registry, rejecting stale records (unknown variant,
 * baseline, or algorithm names, a variant of the other family,
 * non-positive timings) instead of letting a renamed zoo silently
 * redirect tuned choices.
 */

#ifndef CFCONV_TUNE_TUNED_DB_H
#define CFCONV_TUNE_TUNED_DB_H

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace cfconv::tune {

/** One persisted tuning decision for one layer geometry. */
struct TunedEntry
{
    /** Backend family the search ran over ("tpu" / "gpu"). A geometry
     *  is tuned per family — the same layer may pick different
     *  variants on different hardware. */
    std::string family;
    /** Canonical conv::Algorithm name of the baseline's lowering
     *  ("channel-first", "indirect", ...). Part of the key: a geometry
     *  is tuned per (family, algorithm) context, so searches anchored
     *  to different baselines never overwrite each other. */
    std::string algorithm;
    /** Canonical layer geometry: ConvParams::toString() of the full
     *  layer, the same string LayerRecord.geometry carries. */
    std::string geometry;
    Index groups = 1;
    /** Winning variant (must name a variant of the entry's family at
     *  load time). */
    std::string variant;
    /** Baseline variant the search was asked to beat (validated the
     *  same way; a DB entry is only meaningful relative to it). */
    std::string baseline;
    double tunedSeconds = 0.0;    ///< winner's per-instance seconds
    double baselineSeconds = 0.0; ///< baseline's per-instance seconds
    /** Candidate evaluations the original search spent (cache misses
     *  only; 0 never occurs for a fresh search). */
    Index evaluations = 0;
};

/** What a loadFile() call accepted and what it refused. */
struct DbLoadStats
{
    Index loaded = 0;   ///< entries accepted into the database
    Index rejected = 0; ///< stale/invalid entries skipped (warned)
    bool fresh = false; ///< loadOrRecover(): no file existed yet
    /** loadOrRecover(): the file was torn/corrupt and has been
     *  discarded; the caller should re-search and re-save. */
    bool recovered = false;
};

/**
 * In-memory map of tuned entries keyed by (family, algorithm,
 * geometry, groups), with deterministic JSON persistence. Not thread-safe: the tuner
 * queries it from the orchestrating thread only, never from inside a
 * parallel search region.
 */
class TunedConfigDb
{
  public:
    /** Bumped when the JSON layout changes incompatibly; the loader
     *  refuses other versions rather than guessing. v2 added the
     *  per-entry "algorithm" key component (the algorithm zoo). The
     *  loader ignores keys it does not read, such as the "mode" that
     *  older v2 files carry. */
    static constexpr long long kSchemaVersion = 2;
    static constexpr const char *kSchemaName = "cfconv.tuned_db";

    /** Insert or replace the entry for @p entry's key. */
    void upsert(TunedEntry entry);

    /** Lookup; nullptr on a miss. Valid until the next mutation. */
    const TunedEntry *find(const std::string &family,
                           const std::string &algorithm,
                           const std::string &geometry,
                           Index groups) const;

    size_t size() const { return entries_.size(); }

    /** All entries in key order (the persisted order). */
    std::vector<TunedEntry> entries() const;

    /** The full database as a deterministic JSON document. */
    std::string toJson() const;

    /** toJson() to @p path via atomic write-temp + rename with a
     *  checksum trailer (common/atomic_file), so a crash mid-save can
     *  never leave a torn database behind. False on I/O failure
     *  (stderr note). */
    bool saveFile(const std::string &path) const;

    /**
     * Merge the document at @p path into this database, validating
     * each entry against the variant table. Structural problems
     * (missing file, parse error, wrong schema name or version) fail
     * the whole load; per-entry problems (unknown variant/baseline or
     * one of the other family, empty geometry, non-positive seconds)
     * reject just that entry with a warning and are counted in
     * DbLoadStats::rejected.
     */
    StatusOr<DbLoadStats> loadFile(const std::string &path);

    /**
     * Crash-consistent load: like loadFile(), but never fails the
     * caller. A missing file returns stats with fresh=true; a torn or
     * structurally invalid file (checksum mismatch, parse error, wrong
     * schema) is deleted, counted under the "persist.recovered"
     * metric, warned to stderr, and reported with recovered=true so
     * the caller re-searches and re-saves a clean database.
     */
    DbLoadStats loadOrRecover(const std::string &path);

    void clear() { entries_.clear(); }

  private:
    static std::string key(const std::string &family,
                           const std::string &algorithm,
                           const std::string &geometry, Index groups);

    std::map<std::string, TunedEntry> entries_;
};

} // namespace cfconv::tune

#endif // CFCONV_TUNE_TUNED_DB_H
