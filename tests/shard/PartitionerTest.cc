#include <gtest/gtest.h>

#include "shard/Partitioner.hh"

using namespace aim;
using namespace aim::shard;
using namespace aim::workload;

namespace
{

/** A synthetic model: uniform weight layers, optional huge one. */
ModelSpec
syntheticModel(int layers, long hugeAt = -1, int hugeScale = 10)
{
    ModelSpec m;
    m.name = "Synth";
    m.stream.bits = 8;
    for (int i = 0; i < layers; ++i) {
        LayerSpec l;
        l.name = std::string("l").append(std::to_string(i));
        l.type = OpType::Linear;
        l.outChannels = 256;
        l.reduction = 256;
        l.spatial = i == hugeAt ? 64 * hugeScale : 64;
        m.layers.push_back(l);
    }
    return m;
}

} // namespace

TEST(PartitionConfig, Validation)
{
    PartitionConfig cfg;
    EXPECT_TRUE(validatePartitionConfig(cfg).empty());
    cfg.chips = 0;
    EXPECT_NE(validatePartitionConfig(cfg).find("chips"),
              std::string::npos);
    cfg = PartitionConfig{};
    cfg.tensorSplitFactor = 0.0;
    EXPECT_NE(validatePartitionConfig(cfg).find("tensorSplitFactor"),
              std::string::npos);
    cfg = PartitionConfig{};
    cfg.maxTensorWays = 0;
    EXPECT_NE(validatePartitionConfig(cfg).find("maxTensorWays"),
              std::string::npos);
    cfg = PartitionConfig{};
    cfg.rtogAffinityWeight = -0.1;
    EXPECT_NE(
        validatePartitionConfig(cfg).find("rtogAffinityWeight"),
        std::string::npos);
    EXPECT_DEATH(Partitioner{cfg}, "rtogAffinityWeight");
}

TEST(Partitioner, SingleChipIsSingleStage)
{
    PartitionConfig cfg;
    cfg.chips = 1;
    const auto plan =
        Partitioner(cfg).partition(workload::llama3_1b());
    ASSERT_EQ(plan.stages.size(), 1u);
    EXPECT_EQ(plan.stages[0].ways, 1);
    EXPECT_EQ(plan.stages[0].firstLayer, 0);
    EXPECT_EQ(
        plan.stages[0].lastLayer,
        static_cast<int>(workload::llama3_1b().layers.size()));
    EXPECT_EQ(plan.totalChips(), 1);
}

TEST(Partitioner, StagesAreContiguousAndCoverEveryLayer)
{
    const auto model = workload::llama3_1b();
    for (int chips : {2, 3, 4, 8}) {
        PartitionConfig cfg;
        cfg.chips = chips;
        const auto plan = Partitioner(cfg).partition(model);
        ASSERT_FALSE(plan.stages.empty());
        EXPECT_LE(plan.totalChips(), chips);
        int next = 0;
        long macs = 0;
        for (const auto &stage : plan.stages) {
            EXPECT_EQ(stage.firstLayer, next);
            EXPECT_LT(stage.firstLayer, stage.lastLayer);
            next = stage.lastLayer;
            macs += stage.macs * stage.ways;
            EXPECT_FALSE(stage.subModel.layers.empty());
        }
        EXPECT_EQ(next, static_cast<int>(model.layers.size()));
        // Non-TP plans conserve MACs exactly.
        bool anyTp = false;
        for (const auto &stage : plan.stages)
            anyTp |= stage.ways > 1;
        if (!anyTp) {
            EXPECT_EQ(macs, model.totalMacs()) << chips;
        }
    }
}

TEST(Partitioner, BalanceImprovesWithChips)
{
    const auto model = workload::llama3_8b();
    PartitionConfig cfg;
    cfg.chips = 8;
    const auto plan = Partitioner(cfg).partition(model);
    EXPECT_EQ(static_cast<int>(plan.stages.size()), 8);
    // A deep uniform transformer splits near-evenly.
    EXPECT_LT(plan.imbalance(), 0.10);
    EXPECT_LT(plan.maxStageMacs(), model.totalMacs() / 6);
}

TEST(Partitioner, StageNamesAreSuffixed)
{
    PartitionConfig cfg;
    cfg.chips = 3;
    const auto plan =
        Partitioner(cfg).partition(workload::resnet18());
    for (size_t s = 0; s < plan.stages.size(); ++s)
        EXPECT_EQ(plan.stages[s].subModel.name,
                  "ResNet18#s" + std::to_string(s));
}

TEST(Partitioner, TensorParallelSplitsDominantOperator)
{
    // One layer carries ~10/21 of the MACs: at 4 chips it exceeds
    // the budget and must split.
    const auto model = syntheticModel(12, 5, 100);
    PartitionConfig cfg;
    cfg.chips = 4;
    const auto plan = Partitioner(cfg).partition(model);
    const StageSpec *tp = nullptr;
    for (const auto &stage : plan.stages)
        if (stage.ways > 1) {
            EXPECT_EQ(tp, nullptr) << "one dominant layer only";
            tp = &stage;
        }
    ASSERT_NE(tp, nullptr);
    EXPECT_EQ(tp->lastLayer - tp->firstLayer, 1);
    EXPECT_EQ(tp->firstLayer, 5);
    // The slice divides output channels (ceil) across the ways.
    EXPECT_EQ(tp->subModel.layers[0].outChannels,
              (256 + tp->ways - 1) / tp->ways);
    // Exit activations stay full-size (the gang all-gathers).
    EXPECT_EQ(tp->exitActivations, 256L * 64 * 100);
    EXPECT_LE(plan.totalChips(), 4);
}

TEST(Partitioner, TensorParallelCanBeDisabled)
{
    const auto model = syntheticModel(12, 5, 100);
    PartitionConfig cfg;
    cfg.chips = 4;
    cfg.allowTensorParallel = false;
    const auto plan = Partitioner(cfg).partition(model);
    for (const auto &stage : plan.stages)
        EXPECT_EQ(stage.ways, 1);
    EXPECT_EQ(static_cast<int>(plan.stages.size()), 4);
}

TEST(Partitioner, TensorParallelShrinksToFitChipBudget)
{
    // Huge layer in the middle of a 3-chip plan: the pre/post runs
    // need one stage each, so TP ways must shrink until everything
    // fits in 3 chips.
    const auto model = syntheticModel(9, 4, 60);
    PartitionConfig cfg;
    cfg.chips = 3;
    cfg.maxTensorWays = 8;
    const auto plan = Partitioner(cfg).partition(model);
    EXPECT_LE(plan.totalChips(), 3);
    int next = 0;
    for (const auto &stage : plan.stages) {
        EXPECT_EQ(stage.firstLayer, next);
        next = stage.lastLayer;
    }
    EXPECT_EQ(next, 9);
}

TEST(Partitioner, InputDeterminedOperatorsNeverSplit)
{
    // Give the attention core the dominant MACs: it must stay whole.
    ModelSpec m = syntheticModel(8);
    LayerSpec qkt;
    qkt.name = "qkt";
    qkt.type = OpType::QkT;
    qkt.outChannels = 512;
    qkt.reduction = 2048;
    qkt.spatial = 50000;
    m.layers.insert(m.layers.begin() + 4, qkt);
    PartitionConfig cfg;
    cfg.chips = 4;
    const auto plan = Partitioner(cfg).partition(m);
    for (const auto &stage : plan.stages)
        if (stage.ways > 1) {
            for (const auto &layer : stage.subModel.layers)
                EXPECT_FALSE(isInputDetermined(layer.type));
        }
}

TEST(Partitioner, PlanIsDeterministic)
{
    PartitionConfig cfg;
    cfg.chips = 5;
    const auto a = Partitioner(cfg).partition(workload::gpt2());
    const auto b = Partitioner(cfg).partition(workload::gpt2());
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (size_t s = 0; s < a.stages.size(); ++s) {
        EXPECT_EQ(a.stages[s].firstLayer, b.stages[s].firstLayer);
        EXPECT_EQ(a.stages[s].lastLayer, b.stages[s].lastLayer);
        EXPECT_EQ(a.stages[s].ways, b.stages[s].ways);
        EXPECT_EQ(a.stages[s].macs, b.stages[s].macs);
    }
}

TEST(Partitioner, MoreChipsThanLayersUsesFewerStages)
{
    const auto model = syntheticModel(3);
    PartitionConfig cfg;
    cfg.chips = 8;
    cfg.allowTensorParallel = false;
    const auto plan = Partitioner(cfg).partition(model);
    EXPECT_EQ(static_cast<int>(plan.stages.size()), 3);
}

TEST(ShardPlan, ImbalanceAndExtremes)
{
    PartitionConfig cfg;
    cfg.chips = 4;
    const auto plan =
        Partitioner(cfg).partition(workload::llama3_1b());
    EXPECT_GE(plan.imbalance(), 0.0);
    EXPECT_GE(plan.maxStageMacs(), plan.minStageMacs());
    EXPECT_GT(plan.minStageMacs(), 0);
}
