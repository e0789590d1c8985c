#include <gtest/gtest.h>

#include <vector>

#include "quant/Hamming.hh"

using namespace aim::quant;

TEST(Hamming, EmptyRange)
{
    std::vector<int32_t> v;
    EXPECT_EQ(hammingValue(v, 8), 0u);
    EXPECT_DOUBLE_EQ(hammingRate(v, 8), 0.0);
}

TEST(Hamming, AllZeros)
{
    std::vector<int32_t> v(16, 0);
    EXPECT_EQ(hammingValue(v, 8), 0u);
    EXPECT_DOUBLE_EQ(hammingRate(v, 8), 0.0);
}

TEST(Hamming, AllMinusOneIsFullRate)
{
    std::vector<int32_t> v(10, -1);
    EXPECT_EQ(hammingValue(v, 8), 80u);
    EXPECT_DOUBLE_EQ(hammingRate(v, 8), 1.0);
}

TEST(Hamming, MixedValues)
{
    // 1 -> 1 bit, 8 -> 1 bit, -8 -> 5 bits, 0 -> 0 bits: HM = 7.
    std::vector<int32_t> v = {1, 8, -8, 0};
    EXPECT_EQ(hammingValue(v, 8), 7u);
    EXPECT_DOUBLE_EQ(hammingRate(v, 8), 7.0 / 32.0);
}

TEST(Hamming, HrOfInt)
{
    EXPECT_DOUBLE_EQ(hrOfInt(0, 8), 0.0);
    EXPECT_DOUBLE_EQ(hrOfInt(-1, 8), 1.0);
    EXPECT_DOUBLE_EQ(hrOfInt(8, 8), 0.125);
    EXPECT_DOUBLE_EQ(hrOfInt(6, 8), 0.25);
    EXPECT_DOUBLE_EQ(hrOfInt(7, 8), 0.375);
}

TEST(Hamming, FourBitWidth)
{
    std::vector<int32_t> v = {-1, 7, 0};
    // -1 -> 4 bits, 7 -> 3 bits, 0 -> 0 bits over 12 total bits.
    EXPECT_DOUBLE_EQ(hammingRate(v, 4), 7.0 / 12.0);
}

TEST(Hamming, PositiveCheaperThanNegativeNearZero)
{
    // The asymmetry WDS exploits: |small| positive codes are cheap,
    // |small| negative codes are expensive.
    for (int m = 1; m <= 16; ++m)
        EXPECT_LT(hrOfInt(m, 8), hrOfInt(-m, 8));
}

TEST(Hamming, HrTableMatchesHrOfIntAtEveryWidth)
{
    for (int q = 2; q <= 16; ++q) {
        const auto table = hrTable(q);
        ASSERT_EQ(table.size(), size_t{1} << q) << "q=" << q;
        for (int64_t v = aim::util::intMin(q); v <= aim::util::intMax(q);
             ++v)
            ASSERT_EQ(table[v - aim::util::intMin(q)], hrOfInt(v, q))
                << "q=" << q << " v=" << v;
        // Built once: a second call returns the same storage.
        EXPECT_EQ(hrTable(q).data(), table.data());
    }
}
