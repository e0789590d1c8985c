/**
 * @file
 * Serving-layer gate of the ISA engine's reload/compute overlap: a
 * two-model trace on one chip must bank tail-idle overlap budget and
 * spend it against reloads on model switches (cheaper than the flat
 * round-level path, same physics), and the ISA fleet must stay
 * bit-identical across thread counts (tests/serve/ServeGoldenTest
 * pins its report bits).  Both serve on stream::EventLoop.
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"

namespace aim::isa
{
namespace
{

serve::FleetConfig
singleChipFleet(bool use_isa)
{
    serve::FleetConfig fcfg;
    fcfg.chips = 1; // every model change is a switch
    fcfg.options = test::fastServeOptions();
    fcfg.options.useIsa = use_isa;
    return fcfg;
}

TEST(IsaOverlap, SavesReloadOnModelSwitches)
{
    const auto trace = test::serveTrace(24);
    const auto flat = test::serveFleet(singleChipFleet(false), trace);
    const auto isa = test::serveFleet(singleChipFleet(true), trace);

    EXPECT_FALSE(flat.isa);
    EXPECT_EQ(flat.reloadOverlapSavedUs, 0.0);
    EXPECT_TRUE(isa.isa);

    // Same chip physics either way...
    EXPECT_EQ(isa.totalMacs, flat.totalMacs);
    EXPECT_EQ(isa.irFailures, flat.irFailures);
    EXPECT_EQ(isa.stallWindows, flat.stallWindows);
    EXPECT_EQ(isa.totalModelSwitches(), flat.totalModelSwitches());
    ASSERT_GT(isa.totalModelSwitches(), 0);

    // ...but the ISA path hides reload time under the previous
    // request's trailing compute on every switch.
    EXPECT_GT(isa.reloadOverlapSavedUs, 0.0);
    ASSERT_EQ(flat.chips.size(), 1u);
    ASSERT_EQ(isa.chips.size(), 1u);
    EXPECT_NEAR(flat.chips[0].reloadUs - isa.chips[0].reloadUs,
                isa.reloadOverlapSavedUs, 1e-9);
    EXPECT_LT(isa.makespanUs, flat.makespanUs);
}

TEST(IsaOverlap, ThreadCountBitIdentity)
{
    const auto trace = test::serveTrace(24);

    auto fcfg = singleChipFleet(true);
    fcfg.chips = 3;
    const auto a = test::serveFleet(fcfg, trace);
    fcfg.threads = 4;
    const auto b = test::serveFleet(fcfg, trace);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.reloadOverlapSavedUs, b.reloadOverlapSavedUs);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    ASSERT_EQ(a.latencyUs.size(), b.latencyUs.size());
    for (size_t i = 0; i < a.latencyUs.size(); ++i) {
        EXPECT_EQ(a.latencyUs[i], b.latencyUs[i]) << i;
        EXPECT_EQ(a.queueUs[i], b.queueUs[i]) << i;
    }
}

} // namespace
} // namespace aim::isa
