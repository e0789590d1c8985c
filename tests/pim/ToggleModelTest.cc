#include <gtest/gtest.h>

#include <vector>

#include "pim/ToggleModel.hh"
#include "util/BitOps.hh"
#include "util/Stats.hh"
#include "workload/ModelZoo.hh"

using namespace aim::pim;

namespace
{

/** estimateToggleStats as a plain per-row, per-cycle compare loop. */
ToggleStats
referenceToggleStats(const StreamSpec &spec, int rows, int vectors,
                     uint64_t seed)
{
    InputStreamGen gen(spec, aim::util::Rng(seed));
    aim::util::RunningStats rs;
    std::vector<bool> last(rows, false);
    for (int v = 0; v < vectors; ++v) {
        const auto vec = gen.next(rows);
        for (int t = 0; t < spec.bits; ++t) {
            int toggles = 0;
            for (int k = 0; k < rows; ++k) {
                const bool bit = aim::util::bitOfTc(vec[k], t, spec.bits);
                if (bit != last[k])
                    ++toggles;
                last[k] = bit;
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

} // namespace

TEST(ToggleModel, StatsWithinUnitRange)
{
    StreamSpec spec;
    const ToggleStats stats = estimateToggleStats(spec, 128, 100, 1);
    EXPECT_GE(stats.mean, 0.0);
    EXPECT_LE(stats.mean, 1.0);
    EXPECT_GE(stats.stddev, 0.0);
    EXPECT_GE(stats.peak, stats.mean);
    EXPECT_LE(stats.peak, 1.0);
}

TEST(ToggleModel, SparserStreamsToggleLess)
{
    StreamSpec dense;
    dense.density = 1.0;
    StreamSpec sparse;
    sparse.density = 0.3;
    const ToggleStats d = estimateToggleStats(dense, 128, 150, 2);
    const ToggleStats s = estimateToggleStats(sparse, 128, 150, 2);
    EXPECT_LT(s.mean, d.mean);
}

TEST(ToggleModel, TemporalCorrelationBarelyMatters)
{
    // Bit-serial streams toggle mostly *within* a value's own bit
    // sequence, so frame-to-frame correlation only trims the vector-
    // boundary cycle: the effect is real but small.
    StreamSpec flat;
    StreamSpec sticky;
    sticky.temporalCorr = 0.95;
    const ToggleStats f = estimateToggleStats(flat, 128, 400, 3);
    const ToggleStats s = estimateToggleStats(sticky, 128, 400, 3);
    EXPECT_NEAR(s.mean, f.mean, 0.05);
}

TEST(ToggleModel, WiderMagnitudesToggleMore)
{
    StreamSpec narrow;
    narrow.sigmaLsb = 4.0;
    StreamSpec wide;
    wide.sigmaLsb = 45.0;
    const ToggleStats n = estimateToggleStats(narrow, 128, 200, 9);
    const ToggleStats w = estimateToggleStats(wide, 128, 200, 9);
    EXPECT_LT(n.mean, w.mean);
}

TEST(ToggleModel, SamplerNeverExceedsHr)
{
    // Equation 4: sampled Rtog stays within the HR bound.
    ToggleStats stats;
    stats.mean = 0.9;
    stats.stddev = 0.5;
    RtogSampler sampler(0.42, stats, aim::util::Rng(4));
    for (int i = 0; i < 5000; ++i) {
        const double r = sampler.sample();
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 0.42 + 1e-12);
    }
}

TEST(ToggleModel, SamplerMean)
{
    ToggleStats stats;
    stats.mean = 0.5;
    stats.stddev = 0.05;
    RtogSampler sampler(0.4, stats, aim::util::Rng(5));
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += sampler.sample();
    EXPECT_NEAR(acc / n, 0.2, 0.01);
    EXPECT_NEAR(sampler.mean(), 0.2, 1e-12);
}

TEST(ToggleModel, ZeroHrSamplesZero)
{
    ToggleStats stats;
    RtogSampler sampler(0.0, stats, aim::util::Rng(6));
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(sampler.sample(), 0.0);
}

TEST(ToggleModel, HigherHrScalesSamples)
{
    ToggleStats stats;
    stats.mean = 0.5;
    stats.stddev = 0.01;
    RtogSampler lo(0.2, stats, aim::util::Rng(7));
    RtogSampler hi(0.6, stats, aim::util::Rng(7));
    double lo_acc = 0.0;
    double hi_acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
        lo_acc += lo.sample();
        hi_acc += hi.sample();
    }
    EXPECT_NEAR(hi_acc / lo_acc, 3.0, 0.05);
}

TEST(ToggleModel, BitSlicedCountMatchesReferenceLoop)
{
    const StreamSpec conv = aim::workload::resnet18().stream;
    const StreamSpec transformer = aim::workload::gpt2().stream;
    ASSERT_TRUE(conv.nonNegative);
    ASSERT_FALSE(transformer.nonNegative);
    for (const StreamSpec &zoo : {conv, transformer})
        for (int bits : {2, 3, 8, 9, 15, 16})
            for (int rows : {1, 63, 64, 65, 128, 255, 256, 300, 513}) {
                StreamSpec spec = zoo;
                spec.bits = bits;
                const ToggleStats got =
                    estimateToggleStats(spec, rows, 60, 11);
                const ToggleStats want =
                    referenceToggleStats(spec, rows, 60, 11);
                EXPECT_EQ(got.mean, want.mean)
                    << "bits=" << bits << " rows=" << rows;
                EXPECT_EQ(got.stddev, want.stddev)
                    << "bits=" << bits << " rows=" << rows;
                EXPECT_EQ(got.peak, want.peak)
                    << "bits=" << bits << " rows=" << rows;
                EXPECT_EQ(got.burstProb, want.burstProb);
            }
}
