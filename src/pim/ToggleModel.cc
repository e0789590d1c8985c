#include "pim/ToggleModel.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/BitOps.hh"
#include "util/Logging.hh"
#include "util/Stats.hh"

namespace aim::pim
{

namespace
{

/** Byte i of kByteLanes[b] is bit i of b, so adding one row's toggle
 * bits to a word of lanes counts each cycle in its own byte. */
constexpr std::array<uint64_t, 256> kByteLanes = [] {
    std::array<uint64_t, 256> lanes{};
    for (unsigned b = 0; b < 256; ++b)
        for (unsigned i = 0; i < 8; ++i)
            lanes[b] |= uint64_t{(b >> i) & 1u} << (8 * i);
    return lanes;
}();

} // namespace

ToggleStats
estimateToggleStats(const StreamSpec &spec, int rows, int vectors,
                    uint64_t seed)
{
    aim_assert(rows > 0 && vectors > 0, "bad toggle estimation params");
    InputStreamGen gen(spec, util::Rng(seed));

    // Cycle t streams bit t of every row's value, so a row toggles at
    // cycle t when bit t differs from bit t - 1, and at cycle 0 when
    // bit 0 differs from the top bit of the row's previous value:
    // bit t of value ^ ((value << 1) | previous top bit).  The rows'
    // toggle bits add into one byte counter per cycle (the low and
    // high byte of a stream of up to 16 bits in a word each), which
    // flush into the per-cycle totals every 255 rows, before a byte
    // can overflow.
    const uint32_t mask = util::bitMask(spec.bits);
    const int top = spec.bits - 1;
    std::vector<uint32_t> last_top(static_cast<size_t>(rows), 0);
    std::array<long, 16> toggles{};
    util::RunningStats rs;
    for (int v = 0; v < vectors; ++v) {
        const auto vec = gen.next(rows);
        toggles.fill(0);
        for (int begin = 0; begin < rows; begin += 255) {
            uint64_t low = 0;
            uint64_t high = 0;
            for (int k = begin; k < std::min(rows, begin + 255); ++k) {
                const uint32_t value =
                    static_cast<uint32_t>(vec[k]) & mask;
                uint32_t &prev = last_top[static_cast<size_t>(k)];
                const uint32_t flips =
                    (value ^ ((value << 1) | prev)) & mask;
                prev = value >> top;
                low += kByteLanes[flips & 0xff];
                high += kByteLanes[flips >> 8];
            }
            for (int i = 0; i < 8; ++i) {
                toggles[i] += static_cast<long>((low >> (8 * i)) & 0xff);
                toggles[8 + i] +=
                    static_cast<long>((high >> (8 * i)) & 0xff);
            }
        }
        for (int t = 0; t < spec.bits; ++t)
            rs.add(static_cast<double>(toggles[t]) /
                   static_cast<double>(rows));
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
RtogSampler::mean() const
{
    return hr * std::clamp(stats.mean, 0.0, 1.0);
}

} // namespace aim::pim
