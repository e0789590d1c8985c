/**
 * @file
 * Deterministic pseudo-random number generation for all simulator
 * components.  Every stochastic object in the library takes an explicit
 * Rng (or a seed) so that runs are reproducible bit-for-bit; nothing
 * reads global entropy.
 *
 * The core generator is xoshiro256**, seeded through splitmix64 so that
 * small consecutive seeds yield well-decorrelated streams.
 *
 * The draws the window engine makes every window are inline here:
 * next(), both uniform() overloads, bernoulli() and the ziggurat's
 * rectangle path in normal(), which 98.5% of normal draws take.  The
 * ziggurat's wedge and tail attempts, seeding, fork() and
 * uniformInt() stay out of line in Rng.cc.
 */

#ifndef AIM_UTIL_RNG_HH
#define AIM_UTIL_RNG_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace aim::util
{

namespace detail
{

/** Layers of the normal ziggurat; a power of two (index = low bits). */
constexpr int kZigLayers = 256;
/** Right edge of the base layer, where the tail starts. */
constexpr double kZigR = 3.6541528853610088;
/** Area of every layer under the unnormalised density exp(-x^2/2). */
constexpr double kZigV = 4.92867323399e-3;

/**
 * Marsaglia-Tsang ziggurat tables in Doornik's layout: layer i spans
 * [0, x[i]] horizontally, and its rectangle [0, x[i + 1]] lies wholly
 * under the curve.  x[0] = V / f(R) is the base layer, whose part
 * beyond R stands for the tail; x[1] = R; x[kZigLayers] = 0.
 */
struct Ziggurat
{
    /** Layer edges, decreasing. */
    double x[kZigLayers + 1];
    /** f[i] = exp(-x[i]^2 / 2). */
    double f[kZigLayers + 1];
    /** x[i + 1] / x[i]: an abscissa |u| below it is inside the curve. */
    double inner[kZigLayers];
};

/** The tables: built once, read-only (GCC folds them to constant data). */
inline const Ziggurat &
ziggurat()
{
    static const Ziggurat zig = [] {
        Ziggurat z;
        z.x[0] = kZigV / std::exp(-0.5 * kZigR * kZigR);
        z.x[1] = kZigR;
        for (int i = 1; i + 1 < kZigLayers; ++i)
            z.x[i + 1] = std::sqrt(-2.0 * std::log(
                             kZigV / z.x[i] +
                             std::exp(-0.5 * z.x[i] * z.x[i])));
        z.x[kZigLayers] = 0.0;
        for (int i = 0; i <= kZigLayers; ++i)
            z.f[i] = std::exp(-0.5 * z.x[i] * z.x[i]);
        for (int i = 0; i < kZigLayers; ++i)
            z.inner[i] = z.x[i + 1] / z.x[i];
        return z;
    }();
    return zig;
}

} // namespace detail

/** xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

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
    double
    normal()
    {
        const detail::Ziggurat &zig = detail::ziggurat();
        for (;;) {
            // Disjoint bits of one draw: the low 8 pick the layer,
            // the high 53 a uniform abscissa u in [-1, 1).
            const uint64_t r = next();
            const int i = static_cast<int>(r & (detail::kZigLayers - 1));
            const double u =
                static_cast<double>(r >> 11) * 0x1.0p-52 - 1.0;
            if (std::fabs(u) < zig.inner[i])
                return u * zig.x[i];
            if (const auto x = edgeAttempt(i, u))
                return *x;
        }
    }

    /** Normal with explicit mean / standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

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
    /**
     * A ziggurat attempt that missed layer @p layer's rectangle
     * (1.5% of attempts): the tail for the base layer, else a wedge
     * test.  nullopt when the wedge rejects.  Out of line, so that
     * the inline rectangle path stays short.
     */
    [[gnu::cold]] std::optional<double> edgeAttempt(int layer,
                                                    double u);

    uint64_t state[4];
};

} // namespace aim::util

#endif // AIM_UTIL_RNG_HH
