#include <gtest/gtest.h>

#include <vector>

#include "pim/Macro.hh"
#include "quant/Wds.hh"
#include "util/Rng.hh"

using namespace aim::pim;
using aim::quant::QuantizedLayer;

namespace
{

PimConfig
smallConfig()
{
    PimConfig cfg;
    cfg.rows = 16;
    cfg.banks = 8;
    cfg.weightBits = 8;
    cfg.inputBits = 8;
    return cfg;
}

QuantizedLayer
randomLayer(int out, int in, uint64_t seed)
{
    aim::util::Rng rng(seed);
    QuantizedLayer layer;
    layer.name = std::string("t");
    layer.scale = 1.0;
    layer.bits = 8;
    layer.rows = out;
    layer.cols = in;
    layer.values.resize(static_cast<size_t>(out) * in);
    for (auto &v : layer.values)
        v = static_cast<int32_t>(rng.uniformInt(-100, 100));
    return layer;
}

/**
 * Reference output for the macro input layout: x holds consecutive
 * input vectors, so out(v, r) = sum_c W[r][c] * x[v * cols + c].
 */
int64_t
refOut(const QuantizedLayer &layer, const std::vector<int32_t> &x,
       int v, int r)
{
    int64_t acc = 0;
    for (int c = 0; c < layer.cols; ++c)
        acc += static_cast<int64_t>(
                   layer.values[static_cast<size_t>(r) * layer.cols +
                                c]) *
               x[static_cast<size_t>(v) * layer.cols + c];
    return acc;
}

} // namespace

TEST(Macro, GemmMatchesReference)
{
    Macro macro(smallConfig());
    auto layer = randomLayer(8, 16, 1);
    macro.loadLayer(layer);

    aim::util::Rng rng(2);
    std::vector<int32_t> x(16 * 3);
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));

    const auto run = macro.run(x, 16);
    ASSERT_EQ(run.outputs.size(), 24u);
    for (int v = 0; v < 3; ++v)
        for (int r = 0; r < 8; ++r)
            EXPECT_EQ(run.outputs[static_cast<size_t>(v) * 8 + r],
                      refOut(layer, x, v, r));
}

TEST(Macro, WdsShiftedLayerComputesExactGemm)
{
    Macro macro(smallConfig());
    auto layer = randomLayer(8, 16, 3);
    const auto reference = layer;
    aim::quant::applyWds(layer, 8);
    macro.loadLayer(layer);

    aim::util::Rng rng(4);
    std::vector<int32_t> x(16 * 2);
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));

    const auto run = macro.run(x, 16);
    for (int v = 0; v < 2; ++v)
        for (int r = 0; r < 8; ++r)
            EXPECT_EQ(run.outputs[static_cast<size_t>(v) * 8 + r],
                      refOut(reference, x, v, r));
}

TEST(Macro, WdsCostsOnePipelineFillCycle)
{
    auto layer = randomLayer(8, 16, 5);
    Macro plain(smallConfig());
    plain.loadLayer(layer);
    auto shifted = layer;
    aim::quant::applyWds(shifted, 8);
    Macro wds(smallConfig());
    wds.loadLayer(shifted);

    std::vector<int32_t> x(16 * 4, 1);
    const auto run_plain = plain.run(x, 16);
    const auto run_wds = wds.run(x, 16);
    // The compensator is pipelined: throughput is unchanged; only one
    // fill cycle is added to the whole stream.
    EXPECT_EQ(run_wds.cycles, run_plain.cycles + 1);
}

TEST(Macro, HrAveragesActiveBanksOnly)
{
    Macro macro(smallConfig());
    // 2 output channels (banks) of 16 rows, all value -1 -> HR 1.
    std::vector<int32_t> w(2 * 16, -1);
    QuantizedLayer layer;
    layer.values = w;
    layer.scale = 1.0;
    layer.bits = 8;
    layer.rows = 2;
    layer.cols = 16;
    macro.loadLayer(layer);
    EXPECT_DOUBLE_EQ(macro.hr(), 1.0);
    EXPECT_EQ(macro.activeBanks(), 2);
    EXPECT_EQ(macro.bankHr().size(), 2u);
}

TEST(Macro, RtogBoundedByHr)
{
    Macro macro(smallConfig());
    auto layer = randomLayer(8, 16, 7);
    macro.loadLayer(layer);
    aim::util::Rng rng(8);
    std::vector<int32_t> x(16 * 10);
    for (auto &v : x)
        v = static_cast<int32_t>(rng.uniformInt(-128, 127));
    const auto run = macro.run(x, 16);
    for (double r : run.rtogPerCycle)
        EXPECT_LE(r, macro.hr() + 1e-12);
    EXPECT_LE(run.peakRtog(), macro.hr() + 1e-12);
    EXPECT_LE(run.meanRtog(), run.peakRtog() + 1e-12);
}

TEST(Macro, CycleAccounting)
{
    Macro macro(smallConfig());
    auto layer = randomLayer(4, 16, 9);
    macro.loadLayer(layer);
    std::vector<int32_t> x(16 * 5, 3);
    const auto run = macro.run(x, 16);
    EXPECT_EQ(run.cycles, 5 * 8);
    EXPECT_EQ(run.rtogPerCycle.size(), 40u);
}

TEST(Macro, LoadRejectsOversizedTile)
{
    Macro macro(smallConfig());
    auto layer = randomLayer(9, 16, 10); // 9 banks > 8
    EXPECT_DEATH(macro.loadLayer(layer), "banks");
}

TEST(Macro, EmptyRunStatsAreSane)
{
    MacroRunStats stats;
    EXPECT_DOUBLE_EQ(stats.peakRtog(), 0.0);
    EXPECT_DOUBLE_EQ(stats.meanRtog(), 0.0);
}
