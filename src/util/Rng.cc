#include "util/Rng.hh"

#include <cmath>

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

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

std::optional<double>
Rng::edgeAttempt(int layer, double u)
{
    if (layer == 0) {
        // Base layer beyond R: Marsaglia's exact tail sampler.
        double a = 0.0;
        double b = 0.0;
        do {
            a = -std::log(1.0 - uniform()) / detail::kZigR;
            b = -std::log(1.0 - uniform());
        } while (b + b < a * a);
        return u < 0.0 ? -(detail::kZigR + a) : detail::kZigR + a;
    }
    // Wedge between the rectangle and the layer's edge: accept when a
    // uniform height falls under the curve.
    const detail::Ziggurat &zig = detail::ziggurat();
    const double x = u * zig.x[layer];
    const double y =
        zig.f[layer] + uniform() * (zig.f[layer + 1] - zig.f[layer]);
    if (y < std::exp(-0.5 * x * x))
        return x;
    return std::nullopt;
}

Rng
Rng::fork(uint64_t tag) const
{
    // Mix the parent state with the tag through splitmix64 so child
    // streams are decorrelated from the parent and from each other.
    uint64_t s = state[0] ^ std::rotl(state[3], 13) ^
                 (tag * 0xd1342543de82ef95ULL);
    return Rng(splitmix64(s));
}

} // namespace aim::util
