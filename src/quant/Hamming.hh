/**
 * @file
 * HM / HR metrics from paper Equation 3.  HM({W_n}) counts all set bits
 * in the two's-complement encodings of the in-memory data; HR divides
 * by the total bit count n*q.  HR is the theoretical supremum of the
 * cycle toggle rate Rtog (Equation 4) and is the quantity every software
 * optimization in AIM minimizes.
 */

#ifndef AIM_QUANT_HAMMING_HH
#define AIM_QUANT_HAMMING_HH

#include <cstdint>
#include <span>

#include "util/BitOps.hh"

namespace aim::quant
{

/** Hamming value HM: total set bits over all q-bit encodings. */
uint64_t hammingValue(std::span<const int32_t> values, int q);

/** Hamming rate HR = HM / (n * q); 0 for an empty range. */
double hammingRate(std::span<const int32_t> values, int q);

/** HR of a single integer: popcount of its q-bit encoding over q. */
inline double
hrOfInt(int64_t v, int q)
{
    return static_cast<double>(util::popcountTc(v, q)) /
           static_cast<double>(q);
}

/**
 * hrOfInt of every q-bit integer, indexed by v - intMin(q), for
 * 2 <= q <= 16.  Each width's table is built once, on first use,
 * and is read-only afterwards (safe to share across threads).
 */
std::span<const double> hrTable(int q);

} // namespace aim::quant

#endif // AIM_QUANT_HAMMING_HH
