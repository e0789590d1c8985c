#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quant/Pruning.hh"
#include "quant/QatTrainer.hh"
#include "util/Rng.hh"

using namespace aim::quant;

namespace
{

FloatLayer
gaussianLayer(int rows, int cols, uint64_t seed)
{
    aim::util::Rng rng(seed);
    FloatLayer layer;
    layer.name = std::string("p");
    layer.rows = rows;
    layer.cols = cols;
    layer.weights.resize(static_cast<size_t>(rows) * cols);
    for (auto &w : layer.weights)
        w = static_cast<float>(rng.normal(0.0, 0.05));
    layer.pretrained = layer.weights;
    return layer;
}

} // namespace

TEST(Gmp, ReachesTargetSparsity)
{
    auto layer = gaussianLayer(64, 64, 1);
    PruneConfig cfg;
    cfg.sparsity = 0.3;
    applyGmp(layer, cfg);
    EXPECT_NEAR(maskSparsity(layer), 0.3, 0.01);
}

TEST(Gmp, ZeroSparsityIsNoOp)
{
    auto layer = gaussianLayer(16, 16, 2);
    const auto before = layer.weights;
    PruneConfig cfg;
    cfg.sparsity = 0.0;
    applyGmp(layer, cfg);
    EXPECT_EQ(layer.weights, before);
    EXPECT_DOUBLE_EQ(maskSparsity(layer), 0.0);
}

TEST(Gmp, PrunesSmallestMagnitudes)
{
    FloatLayer layer;
    layer.name = "p";
    layer.rows = 1;
    layer.cols = 6;
    layer.weights = {0.01f, -0.9f, 0.02f, 0.8f, -0.03f, 0.7f};
    layer.pretrained = layer.weights;
    PruneConfig cfg;
    cfg.sparsity = 0.5;
    cfg.steps = 1;
    applyGmp(layer, cfg);
    EXPECT_EQ(layer.weights[0], 0.0f);
    EXPECT_EQ(layer.weights[2], 0.0f);
    EXPECT_EQ(layer.weights[4], 0.0f);
    EXPECT_NE(layer.weights[1], 0.0f);
    EXPECT_NE(layer.weights[3], 0.0f);
    EXPECT_NE(layer.weights[5], 0.0f);
}

TEST(Gmp, GradualStepsMonotone)
{
    // More steps never prunes less than the target.
    auto layer = gaussianLayer(32, 32, 3);
    PruneConfig cfg;
    cfg.sparsity = 0.4;
    cfg.steps = 10;
    applyGmp(layer, cfg);
    EXPECT_NEAR(maskSparsity(layer), 0.4, 0.02);
}

TEST(Gmp, SparsityLowersQuantizedHr)
{
    auto dense = gaussianLayer(64, 64, 4);
    auto sparse = dense;
    PruneConfig cfg;
    cfg.sparsity = 0.5;
    applyGmp(sparse, cfg);

    std::vector<FloatLayer> dnet = {dense};
    std::vector<FloatLayer> snet = {sparse};
    const QatResult dres = quantizeBaseline(dnet, 8);
    const QatResult sres = quantizeBaseline(snet, 8);
    EXPECT_LT(sres.hrAverage(), dres.hrAverage());
}

TEST(Gmp, HalfSparsityRoughlyHalvesHr)
{
    // Zeroed weights carry no hamming weight: HR should scale close
    // to (1 - sparsity) for magnitude pruning of a symmetric
    // distribution (small magnitudes carry below-average HR, so the
    // drop is somewhat less than proportional).
    auto dense = gaussianLayer(64, 64, 5);
    auto sparse = dense;
    PruneConfig cfg;
    cfg.sparsity = 0.5;
    applyGmp(sparse, cfg);
    std::vector<FloatLayer> dnet = {dense};
    std::vector<FloatLayer> snet = {sparse};
    const double dhr = quantizeBaseline(dnet, 8).hrAverage();
    const double shr = quantizeBaseline(snet, 8).hrAverage();
    EXPECT_LT(shr, dhr * 0.75);
    EXPECT_GT(shr, dhr * 0.35);
}

TEST(Gmp, ComposesWithLhr)
{
    // Pruning + LHR reduces HR below either alone (paper Figure 15).
    auto base = gaussianLayer(64, 64, 6);

    auto pruned = base;
    PruneConfig pcfg;
    pcfg.sparsity = 0.3;
    applyGmp(pruned, pcfg);
    std::vector<FloatLayer> pnet = {pruned};
    const double hr_prune = quantizeBaseline(pnet, 8).hrAverage();

    auto combo = base;
    applyGmp(combo, pcfg);
    std::vector<FloatLayer> cnet = {combo};
    QatConfig qcfg;
    qcfg.lambda = 2.0;
    const double hr_combo = QatTrainer(qcfg).run(cnet).hrAverage();

    EXPECT_LT(hr_combo, hr_prune);
}

TEST(Gmp, WholeNetworkOverload)
{
    std::vector<FloatLayer> net = {gaussianLayer(16, 16, 7),
                                   gaussianLayer(16, 16, 8)};
    PruneConfig cfg;
    cfg.sparsity = 0.25;
    applyGmp(net, cfg);
    for (const auto &layer : net)
        EXPECT_NEAR(maskSparsity(layer), 0.25, 0.05);
}

TEST(Gmp, MaskSparsityOfDenseLayerIsZero)
{
    auto layer = gaussianLayer(4, 4, 9);
    EXPECT_DOUBLE_EQ(maskSparsity(layer), 0.0);
}
