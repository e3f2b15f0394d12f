/**
 * @file
 * Deterministic fault injection: the chaos-testing counterpart of the
 * oracle layer's deterministic measurement noise. A seeded
 * FaultInjector arms named injection sites spread through the stack —
 * SRAM bank read errors, accelerator-step timeouts, memo-cache entry
 * corruption, thread-pool worker stalls — and every injection decision
 * is a pure function of (seed, site, scope, key), so the same spec
 * always yields the same fault schedule regardless of thread count or
 * scheduling. That purity is what makes chaos runs reproducible:
 * a RunRecord produced under a fixed fault seed is byte-identical
 * across runs and thread counts.
 *
 * Arming: FaultInjector::configure(), which the `faults=SPEC`
 * argument of every bench calls (a malformed spec exits 2 naming the
 * offender). Disabled path: one relaxed atomic load per site check,
 * no allocation.
 *
 * Spec grammar (semicolon-separated `key=value` items):
 *
 *   seed=42; accel.step_timeout=0.3; cache.corrupt@layer_cache=0.5;
 *   max_attempts=4; backoff_us=100; backoff_mult=2; backoff_cap_us=5000;
 *   failover=gpu-v100,tpu-v2
 *
 * Site items name one of the known sites (optionally scoped with
 * `@scope`, e.g. a backend or cache name; the scoped rate overrides
 * the unscoped one) and set an injection probability in [0, 1]. The
 * policy items (max_attempts, backoff_*, failover) configure the
 * resilient sim::ModelRunner and ride in the same spec so one string
 * describes a whole chaos experiment. Unknown keys, bad rates, and
 * malformed values are structured Status errors naming the offender.
 */

#ifndef CFCONV_COMMON_FAULT_H
#define CFCONV_COMMON_FAULT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace cfconv::fault {

/** The named injection sites. Each call site passes its constant. */
inline constexpr const char kSramBankRead[] = "sram.bank_read";
inline constexpr const char kAccelStepTimeout[] = "accel.step_timeout";
inline constexpr const char kCacheCorrupt[] = "cache.corrupt";
inline constexpr const char kPoolWorkerStall[] = "pool.worker_stall";
/** Whole-chip outage in the serving scheduler (serve/serving_sim):
 *  the dispatched batch is re-queued and the chip sits out a repair
 *  interval. Scope is the chip's accelerator variant name. */
inline constexpr const char kServeChipDown[] = "serve.chip_down";

/** Every site configure() accepts, in presentation order. */
const std::vector<std::string> &knownSites();

/** Retry/failover policy carried in the chaos spec (see grammar
 *  above); sim::ModelRunner reads it via FaultInjector::policy(). */
struct ResiliencePolicy
{
    /** Attempts per layer per backend (first try included). */
    Index maxAttempts = 3;
    /** Simulated backoff before the first retry. */
    double backoffSeconds = 100e-6;
    /** Exponential growth factor per further retry. */
    double backoffMultiplier = 2.0;
    /** Cap on a single backoff interval. */
    double maxBackoffSeconds = 10e-3;
    /** Backend names tried, in order, when a layer exhausts its
     *  attempts on the current backend. */
    std::vector<std::string> failover;
};

/**
 * Process-wide injector. All decision methods are safe to call from
 * pool workers; configure()/disarm() must happen between runs.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Replace the active configuration with @p spec (grammar above).
     * An empty spec disarms. @return a Status naming the offending
     * key/value on parse errors, in which case the previous
     * configuration is kept.
     */
    Status configure(const std::string &spec);

    /** Drop all rates, policy, and counters; disarm. */
    void disarm();

    /** Whether any site is armed (one relaxed atomic load — the whole
     *  cost of the disabled path at every call site). */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    std::uint64_t seed() const;

    /** The effective injection probability of @p site under @p scope
     *  ("site@scope" entry if present, else the unscoped "site"). */
    double rate(const std::string &site, const std::string &scope) const;

    /**
     * Pure injection decision: same (seed, site, scope, key) always
     * answers the same, independent of call order or thread count.
     * Callers derive @p key from stable context (layer geometry +
     * attempt, cache key, column index) — never from wall time.
     */
    bool shouldInject(const char *site, const std::string &scope,
                      std::uint64_t key) const;

    /** shouldInject() plus bookkeeping: counts the injection here and
     *  in the MetricsRegistry ("fault.injected.<site>") and drops a
     *  wall-clock trace instant when the recorder is armed. */
    bool inject(const char *site, const std::string &scope,
                std::uint64_t key);

    /** Injections recorded by inject() for @p site since configure(). */
    std::uint64_t injectedCount(const std::string &site) const;

    /** The resilience policy parsed from the spec (defaults when the
     *  spec never mentioned the policy keys). */
    ResiliencePolicy policy() const;

  private:
    FaultInjector() = default;

    mutable std::mutex mu_;
    std::atomic<bool> armed_{false};
    std::uint64_t seed_ = 0;
    std::map<std::string, double> rates_; ///< "site" or "site@scope"
    std::map<std::string, std::uint64_t> injected_;
    ResiliencePolicy policy_;
};

} // namespace cfconv::fault

#endif // CFCONV_COMMON_FAULT_H
