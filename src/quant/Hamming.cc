#include "quant/Hamming.hh"

#include <vector>

#include "util/Logging.hh"

namespace aim::quant
{

namespace
{

/**
 * Width Q's table, built once by its function-local static.  One
 * static per width, so a run builds only the widths it uses: all
 * fifteen together take 1 MiB.
 */
template <int Q>
std::span<const double>
hrTableOf()
{
    static const std::vector<double> table = [] {
        std::vector<double> t(size_t{1} << Q);
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = hrOfInt(util::intMin(Q) + static_cast<int64_t>(i), Q);
        return t;
    }();
    return table;
}

/** hrTableOf<q> at index q - 2. */
constexpr std::span<const double> (*kHrTableOf[])() = {
    hrTableOf<2>,  hrTableOf<3>,  hrTableOf<4>,  hrTableOf<5>,
    hrTableOf<6>,  hrTableOf<7>,  hrTableOf<8>,  hrTableOf<9>,
    hrTableOf<10>, hrTableOf<11>, hrTableOf<12>, hrTableOf<13>,
    hrTableOf<14>, hrTableOf<15>, hrTableOf<16>};

} // namespace

uint64_t
hammingValue(std::span<const int32_t> values, int q)
{
    uint64_t hm = 0;
    for (int32_t v : values)
        hm += static_cast<uint64_t>(util::popcountTc(v, q));
    return hm;
}

double
hammingRate(std::span<const int32_t> values, int q)
{
    if (values.empty())
        return 0.0;
    return static_cast<double>(hammingValue(values, q)) /
           (static_cast<double>(values.size()) * static_cast<double>(q));
}

std::span<const double>
hrTable(int q)
{
    aim_assert(q >= 2 && q <= 16, "no HR table for bit width ", q);
    return kHrTableOf[q - 2]();
}

} // namespace aim::quant
