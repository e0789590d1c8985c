#include <gtest/gtest.h>

#include "stream/EventLoop.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

FleetConfig
valid()
{
    FleetConfig f;
    f.chips = 4;
    return f;
}

GangSpec
gang(const std::string &model, int chips)
{
    GangSpec g;
    g.model = model;
    g.partition.chips = chips;
    return g;
}

} // namespace

TEST(FleetConfigValidation, DefaultsAreValid)
{
    EXPECT_TRUE(validateFleetConfig(valid()).empty());
}

TEST(FleetConfigValidation, RejectsNonPositiveChips)
{
    auto f = valid();
    f.chips = 0;
    EXPECT_NE(validateFleetConfig(f).find("chips"),
              std::string::npos);
    f.chips = -3;
    EXPECT_NE(validateFleetConfig(f).find("chips"),
              std::string::npos);
}

TEST(FleetConfigValidation, RejectsNegativeThreads)
{
    auto f = valid();
    f.threads = -1;
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("threads"), std::string::npos);
    // 0 is the documented "hardware concurrency" request.
    f.threads = 0;
    EXPECT_TRUE(validateFleetConfig(f).empty());
}

TEST(FleetConfigValidation, RejectsNegativeCosts)
{
    auto f = valid();
    f.reloadUsPerMweight = -1.0;
    EXPECT_NE(validateFleetConfig(f).find("reloadUsPerMweight"),
              std::string::npos);
    f = valid();
    f.retuneUsPerStep = -0.5;
    EXPECT_NE(validateFleetConfig(f).find("retuneUsPerStep"),
              std::string::npos);
}

TEST(FleetConfigValidation, SurfacesInvalidOptions)
{
    auto f = valid();
    f.options.workScale = 0.0;
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("options"), std::string::npos);
    EXPECT_NE(msg.find("workScale"), std::string::npos);
}

TEST(FleetConfigValidation, SurfacesInvalidInterconnect)
{
    auto f = valid();
    f.interconnect.linkGBps = -1.0;
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("interconnect"), std::string::npos);
    EXPECT_NE(msg.find("linkGBps"), std::string::npos);
}

TEST(FleetConfigValidation, RejectsGangLargerThanFleet)
{
    auto f = valid();
    f.gangs = {gang("Llama3-8B", 6)};
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("Llama3-8B"), std::string::npos);
    EXPECT_NE(msg.find("needs 6 chips"), std::string::npos);
    // Exactly the fleet size is allowed.
    f.gangs = {gang("Llama3-8B", 4)};
    EXPECT_TRUE(validateFleetConfig(f).empty());
}

TEST(FleetConfigValidation, RejectsBadGangShape)
{
    auto f = valid();
    f.gangs = {gang("", 2)};
    EXPECT_NE(validateFleetConfig(f).find("model name"),
              std::string::npos);
    f = valid();
    f.gangs = {gang("Llama3-8B", 0)};
    EXPECT_NE(validateFleetConfig(f).find("chips"),
              std::string::npos);
    f = valid();
    f.gangs = {gang("Llama3-8B", 2)};
    f.gangs[0].microBatches = 0;
    EXPECT_NE(validateFleetConfig(f).find("microBatches"),
              std::string::npos);
    f = valid();
    f.gangs = {gang("Llama3-8B", 2), gang("Llama3-8B", 3)};
    EXPECT_NE(validateFleetConfig(f).find("duplicate"),
              std::string::npos);
}

TEST(FleetConfigValidation, RejectsInconsistentSkuTable)
{
    // skuOf without a table.
    auto f = valid();
    f.skuOf = {0, 0, 0, 0};
    EXPECT_NE(validateFleetConfig(f).find("SKU table is empty"),
              std::string::npos);
    // Table without a full per-chip assignment.
    f = valid();
    f.skus = {bigSku(), smallSku()};
    f.skuOf = {0, 1};
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("skuOf"), std::string::npos);
    EXPECT_NE(msg.find("4"), std::string::npos);
    // Assignment indexing outside the table.
    f.skuOf = {0, 1, 2, 0};
    EXPECT_NE(validateFleetConfig(f).find("skuOf"),
              std::string::npos);
    // Duplicate SKU names would alias cache keys.
    f.skus = {bigSku(), bigSku()};
    f.skuOf = {0, 1, 0, 1};
    EXPECT_NE(validateFleetConfig(f).find("duplicate"),
              std::string::npos);
    // A well-formed heterogeneous fleet passes.
    f.skus = {bigSku(), smallSku()};
    f.skuOf = {0, 0, 1, 1};
    EXPECT_TRUE(validateFleetConfig(f).empty());
}

TEST(FleetConfigValidation, RejectsInvalidSkuInTable)
{
    auto f = valid();
    auto bad = bigSku();
    bad.weightBufMweightPerMacro = 0.0;
    f.skus = {bad};
    f.skuOf = {0, 0, 0, 0};
    EXPECT_NE(
        validateFleetConfig(f).find("weightBufMweightPerMacro"),
        std::string::npos);
    bad = bigSku();
    bad.pdn.decapScale = -1.0;
    f.skus = {bad};
    EXPECT_NE(validateFleetConfig(f).find("PDN corner"),
              std::string::npos);
}

TEST(FleetConfigValidation, RejectsGangExceedingCapableChips)
{
    // Llama3-8B over 4 members needs ~1749 Mweight per chip; only
    // the two big chips of this mixed fleet can hold that, so a
    // fleet-sized gang must be rejected even though chips >= 4.
    auto f = valid();
    f.skus = {bigSku(), smallSku()};
    f.skuOf = {0, 0, 1, 1};
    f.gangs = {gang("Llama3-8B", 4)};
    const auto msg = validateFleetConfig(f);
    EXPECT_NE(msg.find("Llama3-8B"), std::string::npos);
    EXPECT_NE(msg.find("capacity"), std::string::npos);
    // Shrinking the gang to the capable chips is accepted... but
    // 8B over 2 members (~3498 Mweight each) outgrows even the big
    // part, so it is still rejected.
    f.gangs = {gang("Llama3-8B", 2)};
    EXPECT_FALSE(validateFleetConfig(f).empty());
    // A model whose share fits the big chips passes at gang size 2.
    f.gangs = {gang("Llama3", 2)};
    EXPECT_TRUE(validateFleetConfig(f).empty());
}

TEST(FleetConfigValidation, ConstructorRefusesInvalidConfig)
{
    // The serving engine's constructor validates the fleet it gets.
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    stream::StreamConfig scfg;
    scfg.fleet = valid();
    scfg.fleet.chips = 0;
    EXPECT_DEATH((stream::EventLoop{cfg, cal, scfg}), "chips");
    scfg.fleet = valid();
    scfg.fleet.threads = -4;
    EXPECT_DEATH((stream::EventLoop{cfg, cal, scfg}), "threads");
    scfg.fleet = valid();
    scfg.fleet.gangs = {gang("Llama3-8B", 9)};
    EXPECT_DEATH((stream::EventLoop{cfg, cal, scfg}),
                 "needs 9 chips");
}
