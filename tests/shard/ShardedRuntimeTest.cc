#include <gtest/gtest.h>

#include "exec/ExecPool.hh"
#include "serve/ChipSku.hh"
#include "shard/ShardedRuntime.hh"

using namespace aim;
using namespace aim::shard;

namespace
{

struct Fixture
{
    pim::PimConfig cfg;
    power::Calibration cal = power::defaultCalibration();
    AimPipeline pipe{cfg, cal};

    /** Cheap options: no QAT, tiny work fraction. */
    AimOptions quick() const
    {
        AimOptions o;
        o.useLhr = false;
        o.workScale = 0.05;
        o.mapper = mapping::MapperKind::Sequential;
        return o;
    }

    ShardedModel compile(const workload::ModelSpec &model, int chips)
    {
        PartitionConfig pcfg;
        pcfg.chips = chips;
        return compileSharded(pipe, model, quick(), pcfg);
    }
};

/** Compiles are slow; share artifacts across the whole suite. */
Fixture &
fixture()
{
    static Fixture f;
    return f;
}

const ShardedModel &
resnetSharded()
{
    static ShardedModel m =
        fixture().compile(workload::resnet18(), 3);
    return m;
}

ShardReport
run(const ShardedModel &sharded, int threads, int microBatches = 3,
    uint64_t seed = 77)
{
    ShardRuntimeConfig rcfg;
    rcfg.microBatches = microBatches;
    rcfg.threads = threads;
    ShardedRuntime rt(fixture().cfg, fixture().cal, rcfg);
    return rt.execute(sharded, seed);
}

/** Field-by-field bit-identity of two shard reports. */
void
expectIdentical(const ShardReport &a, const ShardReport &b)
{
    EXPECT_EQ(a.modelName, b.modelName);
    EXPECT_EQ(a.stages, b.stages);
    EXPECT_EQ(a.chips, b.chips);
    EXPECT_EQ(a.microBatches, b.microBatches);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.computeUs, b.computeUs);
    EXPECT_EQ(a.interconnectUs, b.interconnectUs);
    EXPECT_EQ(a.bubbleFraction, b.bubbleFraction);
    EXPECT_EQ(a.interconnectFraction, b.interconnectFraction);
    EXPECT_EQ(a.stageImbalance, b.stageImbalance);
    ASSERT_EQ(a.stageComputeUs.size(), b.stageComputeUs.size());
    for (size_t s = 0; s < a.stageComputeUs.size(); ++s)
        EXPECT_EQ(a.stageComputeUs[s], b.stageComputeUs[s]);
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    EXPECT_EQ(a.merged.wallTimeNs, b.merged.wallTimeNs);
    EXPECT_EQ(a.merged.totalMacs, b.merged.totalMacs);
    EXPECT_EQ(a.merged.irWorstMv, b.merged.irWorstMv);
    EXPECT_EQ(a.merged.irMeanMv, b.merged.irMeanMv);
    EXPECT_EQ(a.merged.failures, b.merged.failures);
    EXPECT_EQ(a.merged.stallWindows, b.merged.stallWindows);
    EXPECT_EQ(a.merged.vfSwitches, b.merged.vfSwitches);
    EXPECT_EQ(a.merged.meanLevel, b.merged.meanLevel);
    EXPECT_EQ(a.merged.meanRtog, b.merged.meanRtog);
    // The rendered text is a function of the fields above.
    EXPECT_EQ(a.render(), b.render());
}

} // namespace

TEST(ShardRuntimeConfig, Validation)
{
    ShardRuntimeConfig rcfg;
    EXPECT_TRUE(validateShardRuntimeConfig(rcfg).empty());
    rcfg.microBatches = 0;
    EXPECT_NE(validateShardRuntimeConfig(rcfg).find("microBatches"),
              std::string::npos);
    rcfg = ShardRuntimeConfig{};
    rcfg.threads = -2;
    EXPECT_NE(validateShardRuntimeConfig(rcfg).find("threads"),
              std::string::npos);
    rcfg = ShardRuntimeConfig{};
    rcfg.interconnect.linkGBps = 0.0;
    EXPECT_NE(validateShardRuntimeConfig(rcfg).find("linkGBps"),
              std::string::npos);
    EXPECT_DEATH(
        ShardedRuntime(fixture().cfg, fixture().cal, rcfg),
        "linkGBps");
}

TEST(CompileSharded, StagesMatchPlanAndConserveWork)
{
    const auto &sharded = resnetSharded();
    ASSERT_EQ(sharded.stages.size(), sharded.plan.stages.size());
    for (size_t s = 0; s < sharded.stages.size(); ++s) {
        EXPECT_EQ(sharded.stages[s].modelName,
                  sharded.plan.stages[s].subModel.name);
        EXPECT_FALSE(sharded.stages[s].rounds.empty());
    }
    // Stage-wise compilation carries the same scaled work as the
    // whole-model artifact, modulo per-task rounding at stage seams.
    const auto whole =
        fixture().pipe.compile(workload::resnet18(),
                               fixture().quick());
    EXPECT_NEAR(sharded.scaledMacs(), whole.scaledMacs(),
                0.1 * whole.scaledMacs());
}

TEST(ShardedRuntime, ReportIsBitIdenticalAcrossThreads)
{
    const auto serial = run(resnetSharded(), 1);
    for (int threads : {2, 4, 8})
        expectIdentical(serial, run(resnetSharded(), threads));
    // threads = 0 resolves to the hardware concurrency.
    expectIdentical(serial, run(resnetSharded(), 0));
}

TEST(ShardedRuntime, PrebuiltRuntimesMatchTheStageEnvFormHomogeneous)
{
    // The constructor-environment form builds one runtime shared by
    // every stage; the runtime form takes it prebuilt, with or
    // without a caller pool.
    const ShardedModel &sharded = resnetSharded();
    ShardRuntimeConfig rcfg;
    rcfg.microBatches = 3;
    const ShardedRuntime rt(fixture().cfg, fixture().cal, rcfg);
    const ShardReport want = rt.execute(sharded, 77, nullptr);
    const sim::Runtime shared(fixture().cfg, fixture().cal,
                              runConfigFor(sharded.options));
    const std::vector<const sim::Runtime *> stages(
        sharded.stages.size(), &shared);
    expectIdentical(rt.execute(sharded, 77, stages), want);
    for (const int threads : {1, 2, 4}) {
        exec::ExecPool pool(threads);
        expectIdentical(rt.execute(sharded, 77, stages, &pool), want);
    }
}

TEST(ShardedRuntime, PrebuiltRuntimesMatchTheStageEnvFormMixedSku)
{
    // A big + small gang: every stage compiles and simulates on its
    // member slot's part, with the SKU's PDN corner applied.
    const std::vector<serve::ChipSku> slots = {serve::bigSku(),
                                               serve::smallSku()};
    PartitionConfig pcfg;
    pcfg.chips = 2;
    pcfg.memberCapacity = {slots[0].capacityMweight(),
                           slots[1].capacityMweight()};
    const ShardedModel sharded = compileShardedSlots(
        workload::resnet18(), fixture().quick(), pcfg,
        {slots[0].pim, slots[1].pim}, {slots[0].cal, slots[1].cal});
    std::vector<StageEnv> envs;
    std::vector<sim::Runtime> built;
    size_t slot = 0;
    for (const auto &stage : sharded.plan.stages) {
        const serve::ChipSku &sku = slots[slot];
        envs.push_back({sku.pim, sku.cal,
                        serve::runConfigForSku(sharded.options, sku)});
        built.emplace_back(sku.pim, sku.cal, envs.back().rcfg);
        slot += static_cast<size_t>(stage.ways);
    }
    ASSERT_GE(envs.size(), 2u);
    std::vector<const sim::Runtime *> stages;
    for (const auto &runtime : built)
        stages.push_back(&runtime);

    ShardRuntimeConfig rcfg;
    rcfg.microBatches = 2;
    const ShardedRuntime rt(fixture().cfg, fixture().cal, rcfg);
    const ShardReport want = rt.execute(sharded, 31, &envs);
    for (const int threads : {1, 2, 4}) {
        exec::ExecPool pool(threads);
        expectIdentical(rt.execute(sharded, 31, stages, &pool), want);
    }
}

TEST(ShardedRuntime, RepeatedRunsAreStable)
{
    const auto a = run(resnetSharded(), 4);
    const auto b = run(resnetSharded(), 4);
    expectIdentical(a, b);
}

TEST(ShardedRuntime, DistinctSeedsDecorrelate)
{
    // Wall time quantizes to whole windows and may coincide on tiny
    // runs; the analog IR statistics always carry the noise stream.
    const auto a = run(resnetSharded(), 2, 3, 7);
    const auto b = run(resnetSharded(), 2, 3, 8);
    EXPECT_TRUE(a.makespanUs != b.makespanUs ||
                a.merged.irMeanMv != b.merged.irMeanMv ||
                a.merged.irWorstMv != b.merged.irWorstMv);
}

TEST(ShardedRuntime, SingleStageHasNoBubbleOrLinkTime)
{
    const auto sharded =
        fixture().compile(workload::mobilenetV2(), 1);
    const auto rep = run(sharded, 2);
    EXPECT_EQ(rep.stages, 1);
    EXPECT_EQ(rep.chips, 1);
    EXPECT_DOUBLE_EQ(rep.interconnectUs, 0.0);
    EXPECT_DOUBLE_EQ(rep.bubbleFraction, 0.0);
    // Sequential micro-batches: makespan is the full compute time.
    EXPECT_DOUBLE_EQ(rep.makespanUs, rep.computeUs);
}

TEST(ShardedRuntime, FractionsAreSane)
{
    const auto rep = run(resnetSharded(), 4);
    EXPECT_EQ(rep.stages, 3);
    EXPECT_EQ(rep.chips, 3);
    EXPECT_GT(rep.makespanUs, 0.0);
    EXPECT_GE(rep.bubbleFraction, 0.0);
    EXPECT_LT(rep.bubbleFraction, 1.0);
    EXPECT_GE(rep.interconnectFraction, 0.0);
    EXPECT_LT(rep.interconnectFraction, 1.0);
    EXPECT_GT(rep.computeUs, 0.0);
    // The request's MAC work lands within rounding of the compiled
    // artifact (micro-batch splitting may clamp tiny tasks up).
    EXPECT_GE(rep.totalMacs, resnetSharded().scaledMacs() * 0.95);
    EXPECT_LE(rep.totalMacs, resnetSharded().scaledMacs() * 1.6);
    // Chip-time identity: compute + link + idle = chips x makespan.
    EXPECT_LE(rep.computeUs + rep.interconnectUs,
              rep.makespanUs * rep.chips * (1.0 + 1e-9));
    // A pipeline with micro-batching beats one chip running the
    // stages back-to-back only in throughput, but its makespan must
    // at least stay below the serialized sum plus link time.
    EXPECT_LT(rep.makespanUs,
              rep.computeUs + rep.interconnectUs + 1e-9);
}

TEST(ShardedRuntime, MoreMicroBatchesShrinkBubble)
{
    const auto few = run(resnetSharded(), 4, 2);
    const auto many = run(resnetSharded(), 4, 8);
    EXPECT_GT(few.bubbleFraction, many.bubbleFraction);
}
