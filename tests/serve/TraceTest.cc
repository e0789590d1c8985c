#include <gtest/gtest.h>

#include <cmath>

#include "serve/Trace.hh"
#include "util/Stats.hh"

using namespace aim::serve;

namespace
{

TraceConfig
baseConfig(ArrivalKind kind, long requests = 2000)
{
    TraceConfig cfg;
    cfg.arrivals = kind;
    cfg.meanRatePerSec = 10000.0;
    cfg.requests = requests;
    cfg.seed = 99;
    cfg.mix = {{"ResNet18", 2.0, 1000.0}, {"GPT2", 1.0, 4000.0}};
    return cfg;
}

std::vector<double>
interarrivals(const std::vector<Request> &trace)
{
    std::vector<double> gaps;
    for (size_t i = 1; i < trace.size(); ++i)
        gaps.push_back(trace[i].arrivalUs - trace[i - 1].arrivalUs);
    return gaps;
}

} // namespace

TEST(Trace, DeterministicForSeed)
{
    const auto cfg = baseConfig(ArrivalKind::Poisson, 300);
    const auto a = generateTrace(cfg);
    const auto b = generateTrace(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].model, b[i].model);
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs);
        EXPECT_EQ(a[i].sloUs, b[i].sloUs);
    }
}

TEST(Trace, SeedChangesArrivals)
{
    auto cfg = baseConfig(ArrivalKind::Poisson, 100);
    const auto a = generateTrace(cfg);
    cfg.seed = 100;
    const auto b = generateTrace(cfg);
    EXPECT_NE(a.back().arrivalUs, b.back().arrivalUs);
}

TEST(Trace, SortedDenseAndSloTagged)
{
    for (const auto kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        const auto trace = generateTrace(baseConfig(kind, 500));
        ASSERT_EQ(trace.size(), 500u);
        for (size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(trace[i].id, static_cast<long>(i));
            EXPECT_GT(trace[i].sloUs, 0.0);
            if (i > 0) {
                EXPECT_GE(trace[i].arrivalUs,
                          trace[i - 1].arrivalUs);
            }
        }
    }
}

TEST(Trace, PoissonMeanRateApproximatesConfig)
{
    const auto cfg = baseConfig(ArrivalKind::Poisson);
    const auto trace = generateTrace(cfg);
    const double rate =
        trace.size() / (trace.back().arrivalUs / 1e6);
    EXPECT_NEAR(rate, cfg.meanRatePerSec,
                0.15 * cfg.meanRatePerSec);
}

TEST(Trace, BurstyMeanRateApproximatesConfig)
{
    const auto cfg = baseConfig(ArrivalKind::Bursty, 4000);
    const auto trace = generateTrace(cfg);
    const double rate =
        trace.size() / (trace.back().arrivalUs / 1e6);
    EXPECT_NEAR(rate, cfg.meanRatePerSec,
                0.30 * cfg.meanRatePerSec);
}

TEST(Trace, BurstyIsBurstierThanPoisson)
{
    const auto poisson =
        generateTrace(baseConfig(ArrivalKind::Poisson, 4000));
    const auto bursty =
        generateTrace(baseConfig(ArrivalKind::Bursty, 4000));
    const auto pg = interarrivals(poisson);
    const auto bg = interarrivals(bursty);
    // Coefficient of variation: ~1 for Poisson, above for MMPP.
    const double p_cv = aim::util::stddev(pg) / aim::util::mean(pg);
    const double b_cv = aim::util::stddev(bg) / aim::util::mean(bg);
    EXPECT_NEAR(p_cv, 1.0, 0.15);
    EXPECT_GT(b_cv, p_cv * 1.3);
}

TEST(Trace, DiurnalRateOscillates)
{
    auto cfg = baseConfig(ArrivalKind::Diurnal, 4000);
    cfg.diurnalAmplitude = 0.9;
    cfg.diurnalPeriodUs = 2e5;
    const auto trace = generateTrace(cfg);
    // Count arrivals in the rising half vs the falling half of each
    // period; the sinusoid concentrates mass in the first half.
    long first_half = 0;
    long second_half = 0;
    for (const auto &r : trace) {
        const double phase =
            std::fmod(r.arrivalUs, cfg.diurnalPeriodUs) /
            cfg.diurnalPeriodUs;
        (phase < 0.5 ? first_half : second_half) += 1;
    }
    EXPECT_GT(first_half, second_half * 1.5);
}

TEST(Trace, MixFollowsWeights)
{
    const auto trace =
        generateTrace(baseConfig(ArrivalKind::Poisson, 3000));
    long resnet = 0;
    for (const auto &r : trace)
        if (r.model == "ResNet18")
            ++resnet;
    const double frac =
        static_cast<double>(resnet) / trace.size();
    EXPECT_NEAR(frac, 2.0 / 3.0, 0.05);
}

TEST(Trace, RejectsBadConfigs)
{
    auto cfg = baseConfig(ArrivalKind::Poisson, 10);
    cfg.mix.clear();
    EXPECT_DEATH(generateTrace(cfg), "mix");

    cfg = baseConfig(ArrivalKind::Poisson, 0);
    EXPECT_DEATH(generateTrace(cfg), "at least one request");

    cfg = baseConfig(ArrivalKind::Poisson, 10);
    cfg.meanRatePerSec = 0.0;
    EXPECT_DEATH(generateTrace(cfg), "meanRatePerSec");

    cfg = baseConfig(ArrivalKind::Bursty, 10);
    cfg.burstFactor = 0.5;
    EXPECT_DEATH(generateTrace(cfg), "burstFactor");

    cfg = baseConfig(ArrivalKind::Diurnal, 10);
    cfg.diurnalAmplitude = 1.5;
    EXPECT_DEATH(generateTrace(cfg), "diurnalAmplitude");
}
