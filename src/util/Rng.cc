#include "util/Rng.hh"

#include <cmath>
#include <optional>

namespace aim::util
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

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
const Ziggurat &
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

/**
 * A ziggurat attempt that missed its layer's rectangle (1.5% of
 * attempts): the tail for the base layer, else a wedge test.  nullopt
 * when the wedge rejects.  Kept out of Rng::normal so that the
 * rectangle path stays a short leaf.
 */
[[gnu::cold]] std::optional<double>
edgeAttempt(Rng &rng, int layer, double u)
{
    if (layer == 0) {
        // Base layer beyond R: Marsaglia's exact tail sampler.
        double a = 0.0;
        double b = 0.0;
        do {
            a = -std::log(1.0 - rng.uniform()) / kZigR;
            b = -std::log(1.0 - rng.uniform());
        } while (b + b < a * a);
        return u < 0.0 ? -(kZigR + a) : kZigR + a;
    }
    // Wedge between the rectangle and the layer's edge: accept when a
    // uniform height falls under the curve.
    const Ziggurat &zig = ziggurat();
    const double x = u * zig.x[layer];
    const double y =
        zig.f[layer] + rng.uniform() * (zig.f[layer + 1] - zig.f[layer]);
    if (y < std::exp(-0.5 * x * x))
        return x;
    return std::nullopt;
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state[1] * 5, 7) * 9;
    const uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

double
Rng::normal()
{
    const Ziggurat &zig = ziggurat();
    for (;;) {
        // Disjoint bits of one draw: the low 8 pick the layer, the
        // high 53 a uniform abscissa u in [-1, 1).
        const uint64_t r = next();
        const int i = static_cast<int>(r & (kZigLayers - 1));
        const double u = static_cast<double>(r >> 11) * 0x1.0p-52 - 1.0;
        if (std::fabs(u) < zig.inner[i])
            return u * zig.x[i];
        if (const auto x = edgeAttempt(*this, i, u))
            return *x;
    }
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork(uint64_t tag) const
{
    // Mix the parent state with the tag through splitmix64 so child
    // streams are decorrelated from the parent and from each other.
    uint64_t s = state[0] ^ rotl(state[3], 13) ^ (tag * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(s));
}

} // namespace aim::util
