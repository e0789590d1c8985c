#include "pim/ToggleModel.hh"

#include <algorithm>
#include <bit>

#include "util/BitOps.hh"
#include "util/Logging.hh"
#include "util/Stats.hh"

namespace aim::pim
{

ToggleStats
estimateToggleStats(const StreamSpec &spec, int rows, int vectors,
                    uint64_t seed)
{
    aim_assert(rows > 0 && vectors > 0, "bad toggle estimation params");
    InputStreamGen gen(spec, util::Rng(seed));

    // Bit-sliced: plane t holds bit t (cycle t) of every row's value,
    // 64 rows per word, so a cycle's toggles are the popcount of its
    // plane XOR the previous cycle's.
    const size_t words = (static_cast<size_t>(rows) + 63) / 64;
    const uint32_t mask = util::bitMask(spec.bits);
    std::vector<uint64_t> planes(static_cast<size_t>(spec.bits) * words);
    std::vector<uint64_t> last(words, 0);
    util::RunningStats rs;
    for (int v = 0; v < vectors; ++v) {
        const auto vec = gen.next(rows);
        std::fill(planes.begin(), planes.end(), 0);
        for (int k = 0; k < rows; ++k) {
            const uint32_t value = static_cast<uint32_t>(vec[k]) & mask;
            uint64_t *word = &planes[static_cast<size_t>(k) / 64];
            for (int t = 0; t < spec.bits; ++t, word += words)
                *word |= uint64_t{(value >> t) & 1u} << (k % 64);
        }
        for (int t = 0; t < spec.bits; ++t) {
            const uint64_t *plane = &planes[t * words];
            int toggles = 0;
            for (size_t w = 0; w < words; ++w) {
                toggles += std::popcount(plane[w] ^ last[w]);
                last[w] = plane[w];
            }
            rs.add(static_cast<double>(toggles) /
                   static_cast<double>(rows));
        }
    }
    ToggleStats stats;
    stats.mean = rs.mean();
    stats.stddev = rs.stddev();
    stats.peak = rs.max();
    return stats;
}

RtogSampler::RtogSampler(double hr, ToggleStats stats, util::Rng rng)
    : hr(hr), stats(stats), rng(rng)
{
    aim_assert(hr >= 0.0 && hr <= 1.0, "HR ", hr, " out of range");
}

double
RtogSampler::sample()
{
    if (stats.burstProb > 0.0 && rng.bernoulli(stats.burstProb)) {
        const double lo = std::clamp(stats.peak, 0.0, 1.0);
        return hr * rng.uniform(lo, 1.0);
    }
    const double frac =
        std::clamp(rng.normal(stats.mean, stats.stddev), 0.0, 1.0);
    return hr * frac;
}

double
RtogSampler::mean() const
{
    return hr * std::clamp(stats.mean, 0.0, 1.0);
}

} // namespace aim::pim
