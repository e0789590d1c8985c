#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/BitOps.hh"
#include "util/Rng.hh"

using namespace aim::util;

TEST(BitOps, PopcountTcBasics)
{
    EXPECT_EQ(popcountTc(0, 8), 0);
    EXPECT_EQ(popcountTc(1, 8), 1);
    EXPECT_EQ(popcountTc(8, 8), 1);
    EXPECT_EQ(popcountTc(127, 8), 7);
    EXPECT_EQ(popcountTc(-1, 8), 8);   // 0xFF
    EXPECT_EQ(popcountTc(-128, 8), 1); // 0x80
    EXPECT_EQ(popcountTc(-8, 8), 5);   // 0xF8
}

TEST(BitOps, PopcountLocalMinimaAtMinus8)
{
    // Paper Figure 7: -8 is a local minimum of the hamming function.
    EXPECT_LT(popcountTc(-8, 8), popcountTc(-7, 8));
    EXPECT_LT(popcountTc(-8, 8), popcountTc(-9, 8));
}

TEST(BitOps, PopcountNarrowWidth)
{
    EXPECT_EQ(popcountTc(-1, 4), 4);  // 0xF
    EXPECT_EQ(popcountTc(7, 4), 3);
    EXPECT_EQ(popcountTc(-8, 4), 1);  // 0x8
}

TEST(BitOps, BitOfTc)
{
    // 5 = 0b101
    EXPECT_TRUE(bitOfTc(5, 0, 8));
    EXPECT_FALSE(bitOfTc(5, 1, 8));
    EXPECT_TRUE(bitOfTc(5, 2, 8));
    // -1 = all ones
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(bitOfTc(-1, i, 8));
    // sign bit of -128
    EXPECT_TRUE(bitOfTc(-128, 7, 8));
    EXPECT_FALSE(bitOfTc(-128, 6, 8));
}

TEST(BitOps, IntRanges)
{
    EXPECT_EQ(intMin(8), -128);
    EXPECT_EQ(intMax(8), 127);
    EXPECT_EQ(intMin(4), -8);
    EXPECT_EQ(intMax(4), 7);
}

TEST(BitOps, ReconstructValueFromBits)
{
    // v = -b7*128 + sum b_i 2^i must reproduce the value.
    for (int v = -128; v <= 127; ++v) {
        int rec = 0;
        for (int i = 0; i < 7; ++i)
            if (bitOfTc(v, i, 8))
                rec += 1 << i;
        if (bitOfTc(v, 7, 8))
            rec -= 128;
        EXPECT_EQ(rec, v);
    }
}

TEST(BitOps, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(8));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(-8));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(BitOps, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0);
    EXPECT_EQ(log2Exact(8), 3);
    EXPECT_EQ(log2Exact(16), 4);
}

TEST(BitOps, BitMask)
{
    EXPECT_EQ(bitMask(8), 0xFFu);
    EXPECT_EQ(bitMask(4), 0xFu);
    EXPECT_EQ(bitMask(32), 0xFFFFFFFFu);
}

namespace
{

/** The reference the inline popcount must match. */
int
popcountRef(int64_t v, int q)
{
    return std::popcount(static_cast<uint32_t>(v) & bitMask(q));
}

} // namespace

TEST(BitOps, PopcountTcMatchesStdPopcountExhaustive)
{
    // Every value of the 17-bit signed range at every width a
    // quantizer supports.
    for (int q = 2; q <= 16; ++q) {
        long mismatches = 0;
        int64_t first = 0;
        for (int64_t v = -(int64_t{1} << 16); v < (int64_t{1} << 16);
             ++v)
            if (popcountTc(v, q) != popcountRef(v, q) &&
                mismatches++ == 0)
                first = v;
        EXPECT_EQ(mismatches, 0) << "q = " << q << ", first v = "
                                 << first;
    }
}

TEST(BitOps, PopcountTcMatchesStdPopcountRandom64)
{
    // Whole 64-bit words: negative values and values above 2^32 keep
    // only their low q bits.
    Rng rng(2025);
    for (int i = 0; i < 20000; ++i) {
        const auto v = static_cast<int64_t>(rng.next());
        for (int q = 2; q <= 32; ++q)
            ASSERT_EQ(popcountTc(v, q), popcountRef(v, q))
                << "v = " << v << ", q = " << q;
    }
    EXPECT_EQ(popcountTc(int64_t{1} << 40, 16), 0);
    EXPECT_EQ(popcountTc((int64_t{1} << 40) | 0xff, 8), 8);
    EXPECT_EQ(popcountTc(INT64_MIN, 32), 0);
    EXPECT_EQ(popcountTc(-1, 32), 32);
}
