#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "quant/QatTrainer.hh"
#include "util/Rng.hh"

using namespace aim::quant;

namespace
{

FloatLayer
gaussianLayer(const std::string &name, int rows, int cols, double sigma,
              uint64_t seed)
{
    aim::util::Rng rng(seed);
    FloatLayer layer;
    layer.name = name;
    layer.rows = rows;
    layer.cols = cols;
    layer.weights.resize(static_cast<size_t>(rows) * cols);
    for (auto &w : layer.weights)
        w = static_cast<float>(rng.normal(0.0, sigma));
    layer.pretrained = layer.weights;
    return layer;
}

} // namespace

TEST(QatBaseline, KeepsWeightsAtPretrained)
{
    std::vector<FloatLayer> layers;
    layers.push_back(gaussianLayer("l0", 32, 64, 0.05, 1));
    const auto pre = layers[0].weights;
    const QatResult res = quantizeBaseline(layers, 8);
    EXPECT_EQ(layers[0].weights, pre);
    EXPECT_EQ(res.layers.size(), 1u);
    // Baseline deviation is pure rounding noise: ~1/12 LSB^2.
    EXPECT_NEAR(res.layerDevLsb2[0], 1.0 / 12.0, 0.03);
}

TEST(QatBaseline, GaussianHrNearHalf)
{
    std::vector<FloatLayer> layers;
    layers.push_back(gaussianLayer("l0", 64, 128, 0.05, 2));
    const QatResult res = quantizeBaseline(layers, 8);
    EXPECT_NEAR(res.hrAverage(), 0.5, 0.06);
}

TEST(QatLhr, ReducesHrVersusBaseline)
{
    std::vector<FloatLayer> base_layers;
    std::vector<FloatLayer> lhr_layers;
    base_layers.push_back(gaussianLayer("l0", 64, 128, 0.05, 3));
    lhr_layers.push_back(base_layers[0]);

    const QatResult base = quantizeBaseline(base_layers, 8);

    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatResult opt = QatTrainer(cfg).run(lhr_layers);

    EXPECT_LT(opt.hrAverage(), base.hrAverage());
    // Paper Table 2 reports 23%..31% HRaver reduction from LHR; allow
    // a generous band around it for the synthetic substrate.
    const double reduction =
        1.0 - opt.hrAverage() / base.hrAverage();
    EXPECT_GT(reduction, 0.10);
    EXPECT_LT(reduction, 0.55);
}

TEST(QatLhr, ReducesHrMax)
{
    std::vector<FloatLayer> base_layers;
    std::vector<FloatLayer> lhr_layers;
    for (int i = 0; i < 4; ++i) {
        base_layers.push_back(
            gaussianLayer(std::string("l").append(std::to_string(i)),
                          32, 64, 0.02 + 0.02 * i, 10 + i));
        lhr_layers.push_back(base_layers.back());
    }
    const QatResult base = quantizeBaseline(base_layers, 8);
    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatResult opt = QatTrainer(cfg).run(lhr_layers);
    EXPECT_LT(opt.hrMax(), base.hrMax());
}

TEST(QatLhr, WeightsStayNearAnchor)
{
    std::vector<FloatLayer> layers;
    layers.push_back(gaussianLayer("l0", 32, 64, 0.05, 4));
    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatResult res = QatTrainer(cfg).run(layers);
    // Accuracy proxy: displacement should stay within a few LSB^2 --
    // LHR trades a bounded perturbation for HR.
    EXPECT_LT(res.layerDevLsb2[0], 16.0);
    EXPECT_GT(res.layerDevLsb2[0], 1.0 / 24.0);
}

TEST(QatLhr, LambdaZeroMatchesBaseline)
{
    std::vector<FloatLayer> a;
    std::vector<FloatLayer> b;
    a.push_back(gaussianLayer("l0", 16, 16, 0.05, 5));
    b.push_back(a[0]);
    QatConfig cfg;
    cfg.lambda = 0.0;
    const QatResult r1 = QatTrainer(cfg).run(a);
    const QatResult r2 = quantizeBaseline(b, 8);
    EXPECT_EQ(r1.layers[0].values, r2.layers[0].values);
}

TEST(QatLhr, StrongerLambdaLowersHrFurther)
{
    std::vector<FloatLayer> weak_l;
    std::vector<FloatLayer> strong_l;
    weak_l.push_back(gaussianLayer("l0", 64, 64, 0.05, 6));
    strong_l.push_back(weak_l[0]);

    QatConfig weak;
    weak.lambda = 0.5;
    QatConfig strong;
    strong.lambda = 2.5;
    const double hr_weak = QatTrainer(weak).run(weak_l).hrAverage();
    const double hr_strong =
        QatTrainer(strong).run(strong_l).hrAverage();
    EXPECT_LT(hr_strong, hr_weak);
}

TEST(QatLhr, WeightsMigrateToHammingMinima)
{
    // After LHR the share of weights on {-8, 0, 8} must grow
    // (paper Figure 7-(a)).
    std::vector<FloatLayer> base_layers;
    std::vector<FloatLayer> lhr_layers;
    base_layers.push_back(gaussianLayer("l0", 64, 128, 0.002, 7));
    lhr_layers.push_back(base_layers[0]);

    auto count_minima = [](const QatResult &r) {
        int hits = 0;
        for (int32_t v : r.layers[0].values)
            if (v == 0 || v == 8 || v == -8)
                ++hits;
        return hits;
    };
    const QatResult base = quantizeBaseline(base_layers, 8);
    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatResult opt = QatTrainer(cfg).run(lhr_layers);
    EXPECT_GT(count_minima(opt), count_minima(base));
}

TEST(QatLhr, RespectsPruningMask)
{
    std::vector<FloatLayer> layers;
    layers.push_back(gaussianLayer("l0", 8, 8, 0.05, 8));
    layers[0].mask.assign(64, 1);
    for (int i = 0; i < 32; ++i)
        layers[0].mask[i] = 0;
    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatResult res = QatTrainer(cfg).run(layers);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(res.layers[0].values[i], 0);
}

TEST(QatResult, AggregatesAcrossLayers)
{
    QatResult res;
    res.layerHr = {0.2, 0.4, 0.6};
    EXPECT_NEAR(res.hrAverage(), 0.4, 1e-12);
    EXPECT_NEAR(res.hrMax(), 0.6, 1e-12);
}

TEST(QatLhr, FourBitTraining)
{
    std::vector<FloatLayer> base_layers;
    std::vector<FloatLayer> lhr_layers;
    base_layers.push_back(gaussianLayer("l0", 32, 32, 0.05, 9));
    lhr_layers.push_back(base_layers[0]);
    const QatResult base = quantizeBaseline(base_layers, 4);
    QatConfig cfg;
    cfg.bits = 4;
    cfg.lambda = 2.0;
    const QatResult opt = QatTrainer(cfg).run(lhr_layers);
    EXPECT_LT(opt.hrAverage(), base.hrAverage());
}

namespace
{

/** Field-for-field equality of one layer's QAT outcome. */
void
expectSameLayer(const QatResult &a, size_t ia, const QatResult &b,
                size_t ib, const FloatLayer &la, const FloatLayer &lb)
{
    EXPECT_EQ(la.weights, lb.weights) << la.name;
    EXPECT_EQ(a.layers[ia].values, b.layers[ib].values) << la.name;
    EXPECT_EQ(a.layers[ia].scale, b.layers[ib].scale) << la.name;
    EXPECT_EQ(a.layerHr[ia], b.layerHr[ib]) << la.name;
    EXPECT_EQ(a.layerDevLsb2[ia], b.layerDevLsb2[ib]) << la.name;
    EXPECT_EQ(a.layerExcessLsb2[ia], b.layerExcessLsb2[ib]) << la.name;
}

} // namespace

TEST(QatLhr, LayersTrainIndependently)
{
    // A layer's outcome depends on its own weights, name and the
    // config only -- never on which other layers share the run or on
    // how run() schedules them.  Nine layers of mixed sizes, one
    // pruned: the whole network must equal each layer trained alone,
    // and two whole runs must agree bit for bit.
    struct Shape
    {
        const char *name;
        int rows;
        int cols;
    };
    const Shape shapes[] = {{"stem", 8, 8},    {"b1", 16, 48},
                            {"b2", 64, 32},    {"wide", 4, 200},
                            {"pruned", 32, 32}, {"b3", 96, 16},
                            {"tiny", 1, 7},    {"b4", 24, 72},
                            {"head", 48, 48}};
    std::vector<FloatLayer> net;
    for (int i = 0; i < 9; ++i)
        net.push_back(gaussianLayer(shapes[i].name, shapes[i].rows,
                                    shapes[i].cols,
                                    0.01 + 0.01 * (i % 4), 40 + i));
    net[4].mask.assign(net[4].weights.size(), 1);
    for (size_t i = 0; i < net[4].mask.size(); i += 3)
        net[4].mask[i] = 0;

    QatConfig cfg;
    cfg.lambda = 2.0;
    const QatTrainer trainer(cfg);

    std::vector<FloatLayer> whole = net;
    const QatResult all = trainer.run(whole);
    std::vector<FloatLayer> again = net;
    const QatResult rerun = trainer.run(again);
    ASSERT_EQ(all.layers.size(), net.size());
    ASSERT_EQ(all.layerHr.size(), net.size());
    ASSERT_EQ(all.layerDevLsb2.size(), net.size());
    ASSERT_EQ(all.layerExcessLsb2.size(), net.size());

    for (size_t i = 0; i < net.size(); ++i) {
        std::vector<FloatLayer> alone = {net[i]};
        const QatResult one = trainer.run(alone);
        ASSERT_EQ(one.layers.size(), 1u);
        expectSameLayer(all, i, one, 0, whole[i], alone[0]);
        expectSameLayer(all, i, rerun, i, whole[i], again[i]);
    }
}
