/**
 * @file
 * Electrical-state carry across rounds (power::IrState): a burst's
 * second request starts from the first one's settled PDN state
 * instead of a cold DC re-init.  Pins three properties:
 *
 *  - the null-carry path is bit-identical to the plain run overload
 *    (opting out costs nothing)
 *  - a seeded evaluator continues the donor's transient instead of
 *    re-living the cold-start first droop
 *  - memoryless backends export nothing and ignore seeds, so the
 *    carry plumbing is inert outside the Transient backend
 *  - a carry moves between backends of one mesh geometry and steps
 *    on the receiving backend's own system; a carry of another
 *    geometry is ignored
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "power/MeshBackend.hh"
#include "power/TransientBackend.hh"

using namespace aim;
using namespace aim::sim;
using aim::test::convRound;
using aim::test::fullLayout;
using aim::test::uniformWindow;

namespace
{

RunConfig
transientRunConfig()
{
    RunConfig rcfg;
    rcfg.mapper = mapping::MapperKind::Sequential;
    rcfg.irBackend = power::IrBackendKind::Transient;
    rcfg.seed = 31;
    return rcfg;
}

power::IrBackendConfig
transientBackendConfig()
{
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Transient;
    return bc;
}

/** Mean droop of one window evaluation on @p eval. */
double
windowMeanDrop(power::IrEval &eval,
               const std::vector<power::GroupWindow> &gw,
               util::Rng &rng)
{
    std::vector<double> drops(gw.size(), 0.0);
    eval.window(gw, rng, drops);
    double acc = 0.0;
    for (const double d : drops)
        acc += d;
    return acc / static_cast<double>(drops.size());
}

} // namespace

TEST(TransientContinuity, NullCarryIsBitIdenticalToPlainRun)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const Runtime rt(cfg, cal, transientRunConfig());
    const std::vector<Round> rounds = {convRound(0.40)};

    const auto plain = rt.run(rounds, test::stream(), 77);
    const auto carried =
        rt.run(rounds, test::stream(), 77, nullptr);
    EXPECT_EQ(plain.wallTimeNs, carried.wallTimeNs);
    EXPECT_EQ(plain.irMeanMv, carried.irMeanMv);
    EXPECT_EQ(plain.irWorstMv, carried.irWorstMv);
    EXPECT_EQ(plain.failures, carried.failures);
    EXPECT_EQ(plain.stallWindows, carried.stallWindows);
}

TEST(TransientContinuity, SeededEvalSkipsTheColdStartTransient)
{
    // Settle an evaluator under heavy activity, export its state,
    // and compare the first window of a cold evaluator against a
    // seeded one under the same demand and noise: the cold start
    // must differ (it re-lives the first-droop transient from the
    // DC baseline; the seeded one continues the settled waveform).
    const auto cal = power::defaultCalibration();
    const power::TransientBackend bk(transientBackendConfig(), cal);
    const auto layout = fullLayout();
    const auto heavy = uniformWindow(0.55);

    auto donor = bk.newEval(layout);
    util::Rng donor_rng(7);
    for (int w = 0; w < 400; ++w)
        windowMeanDrop(*donor, heavy, donor_rng);
    const auto settled = donor->exportState();
    ASSERT_NE(settled, nullptr);

    auto cold = bk.newEval(layout);
    auto seeded = bk.newEval(layout, settled.get());
    util::Rng rng_cold(13), rng_seeded(13);
    const double first_cold = windowMeanDrop(*cold, heavy, rng_cold);
    const double first_seeded =
        windowMeanDrop(*seeded, heavy, rng_seeded);
    EXPECT_NE(first_cold, first_seeded);

    // The carry is a head start, not a new physics: both evals must
    // converge onto the same settled droop.
    double cold_acc = 0.0, seeded_acc = 0.0;
    for (int w = 0; w < 400; ++w) {
        cold_acc = windowMeanDrop(*cold, heavy, rng_cold);
        seeded_acc = windowMeanDrop(*seeded, heavy, rng_seeded);
    }
    EXPECT_NEAR(seeded_acc, cold_acc, std::abs(cold_acc) * 0.05);
}

TEST(TransientContinuity, SeedFromAnotherBackendStepsOnItsOwnSystem)
{
    // A carry holds voltages and bump currents, not the step system:
    // seeded with the settled state of a 20 nF backend, a 5 nF
    // backend of the same geometry and step must continue on its own
    // equations.  Under the donor's steady demand the settled state
    // is (nearly) a fixed point whatever the decap, so the seeded
    // eval's first window matches the donor's next one.
    const auto cal = power::defaultCalibration();
    power::IrBackendConfig a_cfg = transientBackendConfig();
    a_cfg.transientDecapNf = 20.0;
    power::IrBackendConfig b_cfg = transientBackendConfig();
    b_cfg.transientDecapNf = 5.0;
    const power::TransientBackend a(a_cfg, cal);
    const power::TransientBackend b(b_cfg, cal);
    const auto layout = fullLayout();
    const auto heavy = uniformWindow(0.55);

    auto donor = a.newEval(layout);
    util::Rng donor_rng(7);
    for (int w = 0; w < 400; ++w)
        windowMeanDrop(*donor, heavy, donor_rng);
    const auto settled = donor->exportState();
    ASSERT_NE(settled, nullptr);

    auto seeded = b.newEval(layout, settled.get());
    util::Rng rng_donor(13), rng_seeded(13);
    const double donor_next = windowMeanDrop(*donor, heavy, rng_donor);
    const double seeded_first =
        windowMeanDrop(*seeded, heavy, rng_seeded);
    EXPECT_NEAR(seeded_first, donor_next, 1e-6);
}

TEST(TransientContinuity, SeedOfAnotherMeshGeometryFallsBackCold)
{
    // A carry from a mesh of another size cannot seed this one: the
    // eval starts cold, exactly as if no seed had been given.
    const auto cal = power::defaultCalibration();
    power::IrBackendConfig big_cfg = transientBackendConfig();
    big_cfg.meshSize = 24;
    const power::TransientBackend big(big_cfg, cal);
    const power::TransientBackend bk(transientBackendConfig(), cal);
    const auto layout = fullLayout();
    const auto gw = uniformWindow(0.40);

    auto donor = big.newEval(layout);
    util::Rng donor_rng(7);
    for (int w = 0; w < 20; ++w)
        windowMeanDrop(*donor, gw, donor_rng);
    const auto foreign = donor->exportState();

    auto plain = bk.newEval(layout);
    auto seeded = bk.newEval(layout, foreign.get());
    util::Rng rng_a(5), rng_b(5);
    for (int w = 0; w < 20; ++w)
        EXPECT_EQ(windowMeanDrop(*plain, gw, rng_a),
                  windowMeanDrop(*seeded, gw, rng_b))
            << "window " << w;
}

TEST(TransientContinuity, NullSeedFallsBackToTheColdPath)
{
    const auto cal = power::defaultCalibration();
    const power::TransientBackend bk(transientBackendConfig(), cal);
    const auto layout = fullLayout();
    const auto gw = uniformWindow(0.40);
    auto plain = bk.newEval(layout);
    auto seeded_null = bk.newEval(layout, nullptr);
    util::Rng rng_a(5), rng_b(5);
    for (int w = 0; w < 50; ++w)
        EXPECT_EQ(windowMeanDrop(*plain, gw, rng_a),
                  windowMeanDrop(*seeded_null, gw, rng_b))
            << "window " << w;
}

TEST(TransientContinuity, MemorylessBackendsExportNothing)
{
    const auto cal = power::defaultCalibration();
    power::IrBackendConfig bc;
    bc.kind = power::IrBackendKind::Mesh;
    const power::MeshBackend mesh(bc, cal);
    auto eval = mesh.newEval(fullLayout());
    EXPECT_EQ(eval->exportState(), nullptr);
    // A foreign (or null) seed must be ignored, not crash.  (Via
    // the base interface: the derived class only overrides the
    // unseeded factory, which would otherwise hide this overload.)
    const power::IrBackend &base = mesh;
    auto seeded = base.newEval(fullLayout(), nullptr);
    EXPECT_NE(seeded, nullptr);
}

TEST(TransientContinuity, CarryAcrossRunsChangesTheSecondRequest)
{
    // The serving-burst scenario: request B right behind request A
    // on the same chip.  With carry, B's droop history starts from
    // A's settled state; without, B cold-starts.  The reports must
    // be deterministic either way, and the carried B must differ
    // from the cold B in its droop statistics.
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const Runtime rt(cfg, cal, transientRunConfig());
    const std::vector<Round> rounds = {convRound(0.40)};

    std::unique_ptr<power::IrState> carry;
    rt.run(rounds, test::stream(), 77, &carry);
    ASSERT_NE(carry, nullptr);
    const auto carried_b = rt.run(rounds, test::stream(), 78, &carry);
    const auto cold_b = rt.run(rounds, test::stream(), 78);
    EXPECT_NE(carried_b.irMeanMv, cold_b.irMeanMv);

    // Determinism: replaying the same burst reproduces the carried
    // report bit for bit.
    std::unique_ptr<power::IrState> carry2;
    rt.run(rounds, test::stream(), 77, &carry2);
    const auto carried_b2 =
        rt.run(rounds, test::stream(), 78, &carry2);
    EXPECT_EQ(carried_b.wallTimeNs, carried_b2.wallTimeNs);
    EXPECT_EQ(carried_b.irMeanMv, carried_b2.irMeanMv);
    EXPECT_EQ(carried_b.failures, carried_b2.failures);
}
