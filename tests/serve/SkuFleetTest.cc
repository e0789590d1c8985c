/**
 * @file
 * Heterogeneous-fleet contract of the serving layer:
 *
 *  - per-SKU artifact identity: the same model on two SKUs compiles
 *    into two cache entries that never alias (including PDN-corner
 *    only differences)
 *  - capability-aware placement: a model never lands on a chip whose
 *    SKU cannot hold its weights, and an all-default SKU table is
 *    bit-identical to the SKU-less legacy fleet
 *  - determinism: mixed-SKU reports are bit-identical across host
 *    thread counts
 *  - capacity-aware sharding: the partition DP sizes stages by their
 *    member slot's capacity, and unit capacities reproduce the
 *    uniform plan exactly
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "serve/ChipSku.hh"
#include "serve/Dispatch.hh"
#include "shard/Partitioner.hh"
#include "stream/EventLoop.hh"
#include "workload/ModelZoo.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

/** A part too small for GPT2/ViT (~86 Mweight) but roomy enough for
 * the conv zoo: 16 macros x 2 Mweight = 32 Mweight capacity. */
ChipSku
tinySku()
{
    ChipSku sku = smallSku();
    sku.name = "tiny";
    sku.weightBufMweightPerMacro = 2.0;
    return sku;
}

/** Two big + two tiny chips. */
FleetConfig
mixedFleet(int threads = 1)
{
    FleetConfig f;
    f.chips = 4;
    f.options = test::fastServeOptions();
    f.seed = 5;
    f.threads = threads;
    f.skus = {bigSku(), tinySku()};
    f.skuOf = {0, 0, 1, 1};
    return f;
}

std::vector<Request>
traceOf(std::vector<TraceMix> mix, long requests = 16)
{
    TraceConfig t;
    t.arrivals = ArrivalKind::Bursty;
    t.meanRatePerSec = 20000.0;
    t.requests = requests;
    t.seed = 7;
    t.mix = std::move(mix);
    return generateTrace(t);
}

} // namespace

TEST(ChipSkuValidation, StockSkusAreValidAndSized)
{
    for (const auto &sku : {bigSku(), smallSku(), xlSku()})
        EXPECT_TRUE(validateChipSku(sku).empty()) << sku.name;
    EXPECT_EQ(bigSku().capacityMweight(), 2048.0);
    EXPECT_EQ(smallSku().capacityMweight(), 512.0);
    EXPECT_EQ(xlSku().capacityMweight(), 4096.0);
}

TEST(ChipSkuValidation, CatchesBadFields)
{
    auto sku = bigSku();
    sku.name = "";
    EXPECT_NE(validateChipSku(sku).find("name"), std::string::npos);
    sku = bigSku();
    sku.pim.groups = 0;
    EXPECT_NE(validateChipSku(sku).find("geometry"),
              std::string::npos);
    sku = bigSku();
    sku.weightBufMweightPerMacro = -1.0;
    EXPECT_NE(validateChipSku(sku).find("weightBufMweightPerMacro"),
              std::string::npos);
    sku = bigSku();
    sku.costPerHour = 0.0;
    EXPECT_NE(validateChipSku(sku).find("costPerHour"),
              std::string::npos);
    sku = bigSku();
    sku.cal.peakTops = 0.0;
    EXPECT_NE(validateChipSku(sku).find("peakTops"),
              std::string::npos);
    sku = bigSku();
    sku.pdn.bumpScale = 0.0;
    EXPECT_NE(validateChipSku(sku).find("PDN"), std::string::npos);
}

TEST(ChipSkuValidation, PdnCornerScalesOnlyTransientKnobs)
{
    AimOptions opts;
    auto sku = bigSku();
    sku.pdn.decapScale = 0.5;
    sku.pdn.bumpScale = 2.0;
    const auto nominal = runConfigFor(opts);
    const auto derated = runConfigForSku(opts, sku);
    EXPECT_EQ(derated.transientDecapNf,
              nominal.transientDecapNf * 0.5);
    EXPECT_EQ(derated.transientBumpPh,
              nominal.transientBumpPh * 2.0);
    // The nominal corner is a byte-for-byte no-op.
    const auto same = runConfigForSku(opts, bigSku());
    EXPECT_EQ(same.transientDecapNf, nominal.transientDecapNf);
    EXPECT_EQ(same.transientBumpPh, nominal.transientBumpPh);
}

TEST(SkuCache, KeysSeparatePerSkuIncludingPdnCorner)
{
    const auto big = bigSku();
    const auto small = smallSku();
    EXPECT_NE(ModelCache::skuKey(big), ModelCache::skuKey(small));
    // A corner-only difference still separates artifacts: the same
    // geometry droops differently under the Transient backend.
    auto derated = big;
    derated.name = "big-derated";
    derated.pdn.decapScale = 0.5;
    EXPECT_NE(ModelCache::skuKey(big), ModelCache::skuKey(derated));
    // And the SKU-suffixed key never collides with the legacy key.
    AimOptions opts = test::fastServeOptions();
    EXPECT_NE(ModelCache::key("ResNet18", opts) +
                  ModelCache::skuKey(big),
              ModelCache::key("ResNet18", opts));
}

TEST(SkuCache, SameModelOnTwoSkusYieldsTwoArtifacts)
{
    AimPipeline pipe{pim::PimConfig{}, power::defaultCalibration()};
    ModelCache cache(pipe);
    const AimOptions opts = test::fastServeOptions();
    const auto a = cache.get("ResNet18", opts, bigSku());
    const auto b = cache.get("ResNet18", opts, smallSku());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.size(), 2u);
    // Warm fetches hit their own entry.
    EXPECT_EQ(cache.get("ResNet18", opts, bigSku()).get(), a.get());
    EXPECT_EQ(cache.get("ResNet18", opts, smallSku()).get(),
              b.get());
    EXPECT_EQ(cache.hits(), 2);
    EXPECT_EQ(cache.misses(), 2);
}

TEST(SkuFleet, CapabilityPlacementKeepsBigModelsOffTinyChips)
{
    // GPT2 (~86 Mweight) outgrows the tiny part's 32 Mweight, so on
    // a GPT2-only trace the tiny chips must stay completely idle.
    const auto rep = test::serveFleet(
        mixedFleet(), traceOf({{"GPT2", 1.0, 4000.0}}, 12));
    EXPECT_EQ(rep.requests, 12);
    EXPECT_EQ(rep.placementViolations, 0);
    EXPECT_GT(rep.chips[0].served + rep.chips[1].served, 0);
    for (int c : {2, 3}) {
        EXPECT_EQ(rep.chips[c].served, 0) << "tiny chip " << c;
        EXPECT_EQ(rep.chips[c].busyUs, 0.0) << "tiny chip " << c;
    }
}

TEST(SkuFleet, MixedTraceServesEverythingWithoutViolations)
{
    const auto rep = test::serveFleet(
        mixedFleet(), traceOf({{"GPT2", 1.0, 4000.0},
                               {"ResNet18", 1.0, 4000.0}},
                              16));
    EXPECT_EQ(rep.requests, 16);
    EXPECT_EQ(rep.placementViolations, 0);
    long served = 0;
    for (const auto &chip : rep.chips)
        served += chip.served;
    EXPECT_EQ(served, 16);
}

TEST(SkuFleet, AllDefaultSkuTableMatchesLegacyFleetBitForBit)
{
    // A fleet of all-big SKUs is physically the SKU-less fleet; the
    // capability machinery must be a bit-exact no-op on it.
    FleetConfig legacy;
    legacy.chips = 3;
    legacy.options = test::fastServeOptions();
    legacy.seed = 5;
    auto skud = legacy;
    skud.skus = {bigSku()};
    skud.skuOf = {0, 0, 0};
    const auto trace = traceOf(
        {{"ResNet18", 1.0, 4000.0}, {"MobileNetV2", 1.0, 4000.0}},
        20);
    test::expectSameReport(test::serveFleet(legacy, trace),
                           test::serveFleet(skud, trace));
}

TEST(SkuFleet, ThreadCountBitIdentityOnMixedFleet)
{
    const auto trace = traceOf(
        {{"GPT2", 1.0, 4000.0}, {"ResNet18", 1.0, 4000.0}}, 16);
    test::expectSameReport(test::serveFleet(mixedFleet(1), trace),
                           test::serveFleet(mixedFleet(4), trace));
}

TEST(SkuPartition, CapacityAwareStagesFollowSlotCapacity)
{
    const auto model = workload::modelByName("Llama3-8B");
    shard::PartitionConfig uniform;
    uniform.chips = 4;
    uniform.allowTensorParallel = false;
    auto skewed = uniform;
    skewed.memberCapacity = {4096.0, 512.0, 512.0, 512.0};
    const auto plan =
        shard::Partitioner(skewed).partition(model);
    ASSERT_EQ(plan.stages.size(), 4u);
    // Slot 0 holds the one big part, so the DP must hand it the
    // largest stage.
    for (size_t s = 1; s < plan.stages.size(); ++s)
        EXPECT_GE(plan.stages[0].macs, plan.stages[s].macs) << s;
    // And strictly more than a uniform split would give it.
    const auto flat =
        shard::Partitioner(uniform).partition(model);
    ASSERT_EQ(flat.stages.size(), 4u);
    EXPECT_GT(plan.stages[0].macs, flat.stages[0].macs);
}

TEST(SkuPartition, UnitCapacitiesReproduceTheUniformPlan)
{
    const auto model = workload::modelByName("Llama3");
    shard::PartitionConfig uniform;
    uniform.chips = 3;
    auto unit = uniform;
    unit.memberCapacity = {1.0, 1.0, 1.0};
    const auto a = shard::Partitioner(uniform).partition(model);
    const auto b = shard::Partitioner(unit).partition(model);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (size_t s = 0; s < a.stages.size(); ++s) {
        EXPECT_EQ(a.stages[s].firstLayer, b.stages[s].firstLayer);
        EXPECT_EQ(a.stages[s].lastLayer, b.stages[s].lastLayer);
        EXPECT_EQ(a.stages[s].ways, b.stages[s].ways);
        EXPECT_EQ(a.stages[s].macs, b.stages[s].macs);
    }
}

TEST(SkuPartition, ValidationRejectsBadMemberCapacity)
{
    shard::PartitionConfig cfg;
    cfg.chips = 3;
    cfg.memberCapacity = {1.0, 2.0};
    EXPECT_NE(validatePartitionConfig(cfg).find("memberCapacity"),
              std::string::npos);
    cfg.memberCapacity = {1.0, 0.0, 2.0};
    EXPECT_NE(validatePartitionConfig(cfg).find("memberCapacity"),
              std::string::npos);
    cfg.memberCapacity = {1.0, 2.0, 4.0};
    EXPECT_TRUE(validatePartitionConfig(cfg).empty());
}

TEST(SkuFleet, UnservableModelIsFatalNotSilent)
{
    // ViT (~86 Mweight) fits neither part of an all-tiny fleet; the
    // run must die loudly instead of spinning on an unplaceable
    // request.
    FleetConfig f;
    f.chips = 2;
    f.options = test::fastServeOptions();
    f.skus = {tinySku()};
    f.skuOf = {0, 0};
    const auto trace = traceOf({{"ViT", 1.0, 4000.0}}, 4);
    EXPECT_DEATH(test::serveFleet(f, trace), "fits no");
}

TEST(SkuFleet, ModelFittingOnlyAnUninstantiatedSkuIsFatal)
{
    // GPT2 fits the configured big part, but skuOf instantiates only
    // tiny chips: the loop would admit its requests and never
    // dispatch them.  Annotation must refuse the stream instead.
    stream::StreamConfig scfg;
    scfg.fleet = mixedFleet();
    scfg.fleet.chips = 2;
    scfg.fleet.skuOf = {1, 1};
    scfg.trace.arrivals = ArrivalKind::Poisson;
    scfg.trace.requests = 4;
    scfg.trace.mix = {{"GPT2", 1.0, 4000.0}};
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    stream::EventLoop loop(cfg, cal, scfg);
    EXPECT_DEATH(loop.run(test::sharedCache()), "fits no chip");
}
