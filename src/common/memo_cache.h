/**
 * @file
 * Generic process-wide memoization cache for simulator results. The
 * benches and model runners re-simulate identical layer shapes
 * constantly (repeated bottleneck blocks, validation grids, sweeps at
 * a fixed config); a result that is a pure function of its full-
 * fidelity textual key is paid for once. Shared-mutex protected, safe
 * under the common/parallel sweep runners; hit/miss counters are
 * exported through the common/stats StatGroup machinery. Each backend
 * instantiates one singleton (tpusim/layer_cache, gpusim/kernel_cache)
 * over its own result struct; setEnabled(false) turns one off
 * (results are identical either way).
 */

#ifndef CFCONV_COMMON_MEMO_CACHE_H
#define CFCONV_COMMON_MEMO_CACHE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"

namespace cfconv {

/** Key-builder helpers shared by the backend cache-key functions.
 *  %.17g round-trips doubles, so distinct values get distinct keys. */
inline void
memoKeyAppendInt(std::string &key, long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld|", v);
    key += buf;
}

inline void
memoKeyAppendFloat(std::string &key, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g|", v);
    key += buf;
}

/**
 * String-keyed memo cache over one result type. Equal keys must imply
 * equal inputs (full-fidelity keys make hash collisions impossible to
 * observe), and the cached computation must be a pure function of the
 * key — under those contracts concurrent misses on the same key are
 * benign: both threads compute the identical value, last insert wins.
 *
 * @p stat_prefix names the counters in statsSnapshot(), e.g.
 * "layer_cache" gives "layer_cache.hits" / ".misses" / ".entries" /
 * ".corruptions_detected".
 */
template <typename Result>
class MemoCache
{
  public:
    explicit MemoCache(std::string stat_prefix)
        : statPrefix_(std::move(stat_prefix))
    {}

    MemoCache(const MemoCache &) = delete;
    MemoCache &operator=(const MemoCache &) = delete;

    bool enabled() const { return enabled_.load(); }
    void setEnabled(bool on) { enabled_.store(on); }

    /**
     * Install the entry-checksum function (a stable field-by-field
     * hash of a Result — never raw struct bytes, padding is
     * indeterminate). Once set, every insert stores the entry's
     * checksum and every lookup re-verifies it: a mismatch — real
     * memory corruption, or the `cache.corrupt` fault site keyed on
     * this cache's stat prefix — evicts the entry and reports a miss,
     * so a corrupted result is recomputed instead of served. Call once
     * at construction, before the cache is shared across threads.
     */
    void setChecksumFn(std::function<std::uint64_t(const Result &)> fn)
    {
        checksumFn_ = std::move(fn);
    }

    /** @return true and fill @p out on a hit; count the lookup. A
     *  checksum mismatch counts as a detected corruption + a miss. */
    bool
    lookup(const std::string &key, Result *out)
    {
        bool corrupt = false;
        {
            std::shared_lock<std::shared_mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                if (checksumFn_ &&
                    checksumFn_(it->second.value) !=
                        it->second.checksum) {
                    corrupt = true;
                } else {
                    *out = it->second.value;
                    ++hits_;
                    if (trace::enabled())
                        trace::instant("cache", statPrefix_ + ".hit");
                    return true;
                }
            }
        }
        if (corrupt)
            evictCorrupt(key);
        ++misses_;
        if (trace::enabled())
            trace::instant("cache", statPrefix_ + ".miss");
        return false;
    }

    /** Store @p result under @p key (last writer wins; results for a
     *  given key are identical by construction, so races are benign). */
    void
    insert(const std::string &key, const Result &result)
    {
        Entry entry{result, 0};
        if (checksumFn_) {
            entry.checksum = checksumFn_(entry.value);
            // The cache.corrupt fault site: flip the stored checksum
            // so the next lookup detects the entry as damaged. Keyed
            // on the cache key, so the schedule is deterministic.
            if (fault::FaultInjector::instance().inject(
                    fault::kCacheCorrupt, statPrefix_,
                    hashBytes(key.data(), key.size())))
                entry.checksum ^= 0xbad0bad0bad0bad0ULL;
        }
        std::unique_lock<std::shared_mutex> lock(mutex_);
        entries_[key] = std::move(entry);
    }

    /** Drop all entries and reset the counters. */
    void
    clear()
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        entries_.clear();
        hits_.store(0);
        misses_.store(0);
        corruptionsDetected_.store(0);
    }

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    /** Checksum mismatches detected (and healed by eviction) so far. */
    std::uint64_t
    corruptionsDetected() const
    {
        return corruptionsDetected_.load();
    }

    std::uint64_t
    entries() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return entries_.size();
    }

    /** Hit fraction over all lookups so far (0 when none). */
    double
    hitRate() const
    {
        const std::uint64_t h = hits_.load(), m = misses_.load();
        return h + m == 0
            ? 0.0
            : static_cast<double>(h) / static_cast<double>(h + m);
    }

    /** Snapshot of the counters as a common/stats StatGroup. */
    StatGroup
    statsSnapshot() const
    {
        StatGroup g;
        g.add(statPrefix_ + ".hits", static_cast<double>(hits()));
        g.add(statPrefix_ + ".misses", static_cast<double>(misses()));
        g.add(statPrefix_ + ".entries", static_cast<double>(entries()));
        g.add(statPrefix_ + ".corruptions_detected",
              static_cast<double>(corruptionsDetected()));
        return g;
    }

  private:
    struct Entry
    {
        Result value{};
        std::uint64_t checksum = 0;
    };

    /** Re-verify under the writer lock and drop the damaged entry;
     *  the caller then reports a miss, so the layer is recomputed. */
    void
    evictCorrupt(const std::string &key)
    {
        {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it == entries_.end() ||
                (checksumFn_ &&
                 checksumFn_(it->second.value) == it->second.checksum))
                return; // already healed by a concurrent re-insert
            entries_.erase(it);
        }
        ++corruptionsDetected_;
        MetricsRegistry::instance().add(
            "fault.detected." + statPrefix_ + ".corruption", 1.0);
        if (trace::enabled())
            trace::instant("fault", statPrefix_ + ".corruption_detected");
    }

    const std::string statPrefix_;
    std::function<std::uint64_t(const Result &)> checksumFn_;
    mutable std::shared_mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    std::atomic<bool> enabled_{true};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> corruptionsDetected_{0};
};

} // namespace cfconv

#endif // CFCONV_COMMON_MEMO_CACHE_H
