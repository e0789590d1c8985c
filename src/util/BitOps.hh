/**
 * @file
 * Bit-level helpers for two's-complement quantized values.  The hamming
 * weight of the q-bit two's-complement encoding is the fundamental
 * quantity behind the paper's HR metric (Equation 3).
 */

#ifndef AIM_UTIL_BITOPS_HH
#define AIM_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>

namespace aim::util
{

/** Mask selecting the low @p q bits. */
constexpr uint32_t
bitMask(int q)
{
    return q >= 32 ? 0xffffffffu : ((1u << q) - 1u);
}

/**
 * Number of set bits in the q-bit two's-complement encoding of @p v.
 * E.g. popcountTc(-1, 8) == 8 and popcountTc(8, 8) == 1.
 *
 * An inline SWAR count (bit pairs, nibbles, then one multiply that
 * sums the bytes): the x86-64 baseline has no POPCNT, so
 * std::popcount compiles to a call into libgcc, which costs about
 * twice as much per value in the HR passes of a compile.
 */
constexpr int
popcountTc(int64_t v, int q)
{
    uint32_t x = static_cast<uint32_t>(v) & bitMask(q);
    x -= (x >> 1) & 0x55555555u;
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0fu;
    return static_cast<int>((x * 0x01010101u) >> 24);
}

/** Bit @p i (LSB = 0) of the q-bit two's-complement encoding of @p v. */
constexpr bool
bitOfTc(int64_t v, int i, int q)
{
    return ((static_cast<uint32_t>(v) & bitMask(q)) >> i) & 1u;
}

/** Smallest representable signed value with @p q bits. */
constexpr int64_t
intMin(int q)
{
    return -(int64_t{1} << (q - 1));
}

/** Largest representable signed value with @p q bits. */
constexpr int64_t
intMax(int q)
{
    return (int64_t{1} << (q - 1)) - 1;
}

/** True when @p v is an exact power of two (v > 0). */
constexpr bool
isPowerOfTwo(int64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr int
log2Exact(int64_t v)
{
    int k = 0;
    while ((int64_t{1} << k) < v)
        ++k;
    return k;
}

} // namespace aim::util

#endif // AIM_UTIL_BITOPS_HH
