#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/Rng.hh"
#include "util/Stats.hh"

using namespace aim::util;

namespace
{

/** Right edge of the sampler's base layer, where its tail path starts. */
constexpr double kZigguratR = 3.6541528853610088;

/** P(|X| > k) of a standard normal. */
double
twoSidedTail(double k)
{
    return std::erfc(k / std::sqrt(2.0));
}

} // namespace

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.uniformInt(0, 7);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 7);
        saw_lo = saw_lo || v == 0;
        saw_hi = saw_hi || v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximate)
{
    Rng rng(13);
    RunningStats rs;
    for (int i = 0; i < 50000; ++i)
        rs.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(rs.mean(), 2.0, 0.1);
    EXPECT_NEAR(rs.stddev(), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, ForkIndependence)
{
    Rng parent(23);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (c1.next() == c2.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic)
{
    Rng p1(29);
    Rng p2(29);
    Rng c1 = p1.fork(5);
    Rng c2 = p2.fork(5);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(c1.next(), c2.next());
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(31);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Rng, NormalMomentsWithinFourStandardErrors)
{
    // Mean, variance, skewness and kurtosis of 2e6 draws, each within
    // four of its large-sample standard errors (1, 2, 6, 24 over n).
    const int n = 2'000'000;
    Rng rng(101);
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        const double x2 = x * x;
        s1 += x;
        s2 += x2;
        s3 += x2 * x;
        s4 += x2 * x2;
    }
    const double m = s1 / n;
    const double var = s2 / n - m * m;
    const double m3 = s3 / n - 3.0 * m * s2 / n + 2.0 * m * m * m;
    const double m4 = s4 / n - 4.0 * m * s3 / n + 6.0 * m * m * s2 / n -
                      3.0 * m * m * m * m;
    EXPECT_NEAR(m, 0.0, 4.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(var, 1.0, 4.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(m3 / std::pow(var, 1.5), 0.0, 4.0 * std::sqrt(6.0 / n));
    EXPECT_NEAR(m4 / (var * var), 3.0, 4.0 * std::sqrt(24.0 / n));
}

TEST(Rng, NormalTailMassesMatchErfc)
{
    // The mass beyond 1..4 sigma, and beyond the base layer's edge R
    // (everything past it comes from the tail sampler), within four
    // binomial standard errors of erfc.
    const int n = 2'000'000;
    const std::vector<double> edges = {1.0, 2.0, 3.0, kZigguratR, 4.0};
    std::vector<long> beyond(edges.size(), 0);
    Rng rng(103);
    for (int i = 0; i < n; ++i) {
        const double a = std::fabs(rng.normal());
        for (size_t k = 0; k < edges.size(); ++k)
            beyond[k] += a > edges[k];
    }
    for (size_t k = 0; k < edges.size(); ++k) {
        const double p = twoSidedTail(edges[k]);
        const double se = std::sqrt(p * (1.0 - p) / n);
        EXPECT_NEAR(static_cast<double>(beyond[k]) / n, p, 4.0 * se)
            << "beyond " << edges[k] << " sigma";
    }
}

TEST(Rng, NormalPassesKolmogorovSmirnov)
{
    // sqrt(n) * D below 1.95, the Kolmogorov 0.1% critical value.
    const int n = 1'000'000;
    Rng rng(107);
    std::vector<double> x(n);
    for (auto &v : x)
        v = rng.normal();
    std::sort(x.begin(), x.end());
    double d = 0.0;
    for (int i = 0; i < n; ++i) {
        const double cdf = 0.5 * std::erfc(-x[i] / std::sqrt(2.0));
        d = std::max(
            {d, (i + 1.0) / n - cdf, cdf - static_cast<double>(i) / n});
    }
    EXPECT_LT(std::sqrt(static_cast<double>(n)) * d, 1.95);
}

TEST(Rng, NormalGoldenFirstDraws)
{
    // The first draws of Rng(1).normal(), pinned (%.17g) so that a
    // change to the sampler is deliberate.
    const double golden[16] = {
        0.42950292484415614,  0.029151296815977275, 0.38696670332275279,
        -0.2767176327523615,  0.64068022806650649,  -1.6867861094101184,
        -0.65241741147378951, -0.31862062732416663, 1.7482500100812399,
        0.10036339580404727,  0.83232487172102954,  1.1704770584920712,
        0.53395235333881941,  0.72186982882874684,  0.18187640045769202,
        1.815481083185388};
    Rng rng(1);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(rng.normal(), golden[i]) << "draw " << i;
}

TEST(Rng, NormalWithMomentsIsAffineDrawForDraw)
{
    for (const auto &[mean, stddev] :
         std::vector<std::pair<double, double>>{
             {0.0, 1.0}, {2.0, 3.0}, {-1.5, 0.25}, {40.0, 1e-3}}) {
        Rng a(109);
        Rng b(109);
        for (int i = 0; i < 1000; ++i)
            EXPECT_EQ(a.normal(mean, stddev), mean + stddev * b.normal());
    }
}
