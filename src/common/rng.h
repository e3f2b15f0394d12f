/**
 * @file
 * Deterministic random number generation. Everything in cfconv that needs
 * randomness (synthetic tensors, measurement-noise oracles) goes through
 * this header so runs are exactly reproducible.
 */

#ifndef CFCONV_COMMON_RNG_H
#define CFCONV_COMMON_RNG_H

#include <cstddef>
#include <cstdint>

namespace cfconv {

/**
 * SplitMix64: tiny, high-quality, seedable PRNG. Used instead of
 * std::mt19937 so that sequences are stable across standard libraries.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** @return a uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return a uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** @return a uniform integer in [0, n). @p n must be positive. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

  private:
    std::uint64_t state_;
};

/**
 * Stateless hash of a byte-free key sequence; used by the measurement
 * oracles to derive per-configuration deterministic "noise".
 */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/**
 * The measurement oracles' deterministic noise factor for @p key,
 * uniform in [1 - amplitude, 1 + amplitude): the SplitMix64 finalizer
 * of key ^ seed, whose full avalanche gives near-identical keys (layers
 * differing in one field) independent noise.
 */
inline double
measurementNoise(std::uint64_t key, std::uint64_t seed, double amplitude)
{
    std::uint64_t z = key ^ seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    return 1.0 + amplitude * u;
}

/** FNV-1a over a NUL-terminated string; constexpr so fault-site names
 *  hash at compile time. */
constexpr std::uint64_t
fnv1a(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (; *s != '\0'; ++s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s));
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** FNV-1a over an arbitrary byte range; used for memo-cache entry
 *  checksums and fault-injection keys. */
inline std::uint64_t
hashBytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<std::uint64_t>(p[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace cfconv

#endif // CFCONV_COMMON_RNG_H
