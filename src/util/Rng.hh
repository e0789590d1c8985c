/**
 * @file
 * Deterministic pseudo-random number generation for all simulator
 * components.  Every stochastic object in the library takes an explicit
 * Rng (or a seed) so that runs are reproducible bit-for-bit; nothing
 * reads global entropy.
 *
 * The core generator is xoshiro256**, seeded through splitmix64 so that
 * small consecutive seeds yield well-decorrelated streams.
 */

#ifndef AIM_UTIL_RNG_HH
#define AIM_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aim::util
{

/** xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /**
     * Standard normal via a 256-layer ziggurat (Marsaglia & Tsang,
     * in Doornik's layout).  Each attempt takes the layer index and
     * a signed abscissa from disjoint bits of one next(); 98.5% of
     * attempts land inside a layer's rectangle and cost that one
     * step, a table lookup and a compare.  Only the wedge and tail
     * attempts (1.5%) draw uniform() and call exp or log.  No
     * variate is cached, so a draw depends only on the state.
     */
    double normal();

    /** Normal with explicit mean / standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * Derive an independent child stream.  Children produced from the
     * same parent with distinct tags never share state.
     *
     * @param tag caller-chosen stream discriminator
     */
    Rng fork(uint64_t tag) const;

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(uniformInt(0, i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t state[4];
};

} // namespace aim::util

#endif // AIM_UTIL_RNG_HH
