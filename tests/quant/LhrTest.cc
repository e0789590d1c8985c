#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quant/Hamming.hh"
#include "quant/Lhr.hh"
#include "util/Rng.hh"

using namespace aim::quant;

namespace
{

/** Equation 5 straight from the definition: two hrOfInt calls. */
HrInterp
referenceInterpolatedHr(double x, int q)
{
    const auto lo = aim::util::intMin(q);
    const auto hi = aim::util::intMax(q);
    if (x <= static_cast<double>(lo))
        return {hrOfInt(lo, q), 0.0};
    if (x >= static_cast<double>(hi))
        return {hrOfInt(hi, q), 0.0};
    const double low = std::floor(x);
    const double high = std::ceil(x);
    const double hr_low = hrOfInt(static_cast<int64_t>(low), q);
    if (low == high)
        return {hr_low, 0.0};
    const double hr_high = hrOfInt(static_cast<int64_t>(high), q);
    const double p = x - low;
    return {(1.0 - p) * hr_low + p * hr_high, hr_high - hr_low};
}

void
expectSameBits(double x, int q)
{
    const HrInterp got = interpolatedHr(x, q);
    const HrInterp want = referenceInterpolatedHr(x, q);
    EXPECT_EQ(got.value, want.value) << "x=" << x << " q=" << q;
    EXPECT_EQ(got.slope, want.slope) << "x=" << x << " q=" << q;
}

} // namespace

TEST(Lhr, PaperAnchorMinusZeroPoint62)
{
    // Paper Figure 7-(b): "the interpolated HR of -0.62 is 0.62, with
    // a gradient of 1" (their gradient is the descent direction, i.e.
    // the negative slope).
    const HrInterp h = interpolatedHr(-0.62, 8);
    EXPECT_NEAR(h.value, 0.62, 1e-12);
    EXPECT_NEAR(-h.slope, 1.0, 1e-12);
}

TEST(Lhr, PaperAnchorSixPointFour)
{
    // Paper Figure 7-(b): "the HR of 6.4 is 0.3, with a gradient of
    // -0.125".
    const HrInterp h = interpolatedHr(6.4, 8);
    EXPECT_NEAR(h.value, 0.3, 1e-12);
    EXPECT_NEAR(-h.slope, -0.125, 1e-12);
}

TEST(Lhr, ExactIntegerHasExactValueZeroSlope)
{
    for (int v : {-8, -1, 0, 1, 8, 100, -100}) {
        const HrInterp h = interpolatedHr(static_cast<double>(v), 8);
        EXPECT_DOUBLE_EQ(h.value, hrOfInt(v, 8));
        EXPECT_DOUBLE_EQ(h.slope, 0.0);
    }
}

TEST(Lhr, ClampsBeyondRange)
{
    const HrInterp lo = interpolatedHr(-500.0, 8);
    EXPECT_DOUBLE_EQ(lo.value, hrOfInt(-128, 8));
    EXPECT_DOUBLE_EQ(lo.slope, 0.0);
    const HrInterp hi = interpolatedHr(500.0, 8);
    EXPECT_DOUBLE_EQ(hi.value, hrOfInt(127, 8));
    EXPECT_DOUBLE_EQ(hi.slope, 0.0);
}

TEST(Lhr, InterpolationIsContinuous)
{
    // Value approaching an integer from both sides converges to the
    // integer's HR.
    for (int v = -20; v <= 20; ++v) {
        const double at = hrOfInt(v, 8);
        EXPECT_NEAR(interpolatedHr(v - 1e-9, 8).value, at, 1e-6);
        EXPECT_NEAR(interpolatedHr(v + 1e-9, 8).value, at, 1e-6);
    }
}

TEST(Lhr, SlopeMatchesFiniteDifference)
{
    for (double x : {-3.7, -0.3, 0.4, 5.2, 17.8}) {
        const HrInterp h = interpolatedHr(x, 8);
        const double eps = 1e-6;
        const double fd = (interpolatedHr(x + eps, 8).value -
                           interpolatedHr(x - eps, 8).value) /
                          (2.0 * eps);
        EXPECT_NEAR(h.slope, fd, 1e-4) << "x=" << x;
    }
}

TEST(Lhr, DescentMovesTowardLocalMinimum)
{
    // From -0.62 descent increases x toward 0 (HR 0); from 6.4 it
    // decreases toward 6 (HR 0.25 < 0.375).
    EXPECT_LT(interpolatedHr(-0.62, 8).slope, 0.0);
    EXPECT_GT(interpolatedHr(6.4, 8).slope, 0.0);
}

TEST(Lhr, LayerAverage)
{
    std::vector<float> w = {-0.62f, 6.4f};
    const double hr = layerInterpolatedHr(w, 1.0, 8);
    EXPECT_NEAR(hr, (0.62 + 0.3) / 2.0, 1e-6);
}

TEST(Lhr, LayerAverageScales)
{
    // Same scaled positions via the quantization scale.
    std::vector<float> w = {-0.062f, 0.64f};
    const double hr = layerInterpolatedHr(w, 0.1, 8);
    EXPECT_NEAR(hr, (0.62 + 0.3) / 2.0, 1e-5);
}

TEST(Lhr, LossIsSquaredSum)
{
    std::vector<double> hrs = {0.5, 0.3};
    EXPECT_DOUBLE_EQ(lhrLoss(hrs), 0.25 + 0.09);
}

TEST(Lhr, LossPenalizesPeakLayers)
{
    // Equal average HR, but the peaked profile costs more -- the
    // property that lets LHR target the worst layer (Section 5.3).
    std::vector<double> flat = {0.4, 0.4};
    std::vector<double> peaked = {0.6, 0.2};
    EXPECT_GT(lhrLoss(peaked), lhrLoss(flat));
}

TEST(Lhr, TableDrivenMatchesDefinitionBitForBit)
{
    aim::util::Rng rng(41);
    for (int q = 2; q <= 16; ++q) {
        const double lo = static_cast<double>(aim::util::intMin(q));
        const double hi = static_cast<double>(aim::util::intMax(q));
        // Random reals across (and a little beyond) the range.
        for (int i = 0; i < 2000; ++i)
            expectSameBits(rng.uniform(lo - 2.0, hi + 2.0), q);
        // Exact integers, including both ends.
        for (int64_t v = aim::util::intMin(q); v <= aim::util::intMax(q);
             v += q < 10 ? 1 : 37)
            expectSameBits(static_cast<double>(v), q);
        expectSameBits(hi, q);
        // Both clamp edges, at, just inside and just beyond.
        for (double edge : {lo, hi}) {
            expectSameBits(edge, q);
            expectSameBits(std::nextafter(edge, 0.0), q);
            expectSameBits(std::nextafter(edge, edge * 2.0), q);
            expectSameBits(edge * 10.0, q);
        }
    }
}
