/**
 * @file
 * ArtifactMeta's memoized scheduling keys under a bounded ModelCache:
 * an evicted artifact is freed and its address can come back as
 * another model's artifact, so the memos must not key on artifact
 * addresses.
 */

#include <gtest/gtest.h>

#include "TestUtil.hh"
#include "serve/Dispatch.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

GangSpec
gang(const std::string &model)
{
    GangSpec g;
    g.model = model;
    g.partition.chips = 2;
    g.microBatches = 2;
    return g;
}

/**
 * Annotate a model sequence that cycles through a one-artifact cache
 * and compare each annotation with one from an unbounded cache.  Each
 * annotation is dropped before the next, so its artifact is freed on
 * eviction.
 */
void
expectBoundedMatchesUnbounded(const FleetConfig &fcfg)
{
    const pim::PimConfig cfg;
    const auto cal = power::defaultCalibration();
    const AimPipeline pipe(cfg, cal);
    ModelCache bounded(pipe, 1);
    ArtifactMeta meta(fcfg, cal);
    ArtifactMeta ref(fcfg, cal);
    const char *models[] = {"ResNet18", "MobileNetV2", "GPT2",
                            "YOLOv5",   "ResNet18",    "GPT2",
                            "MobileNetV2"};
    long id = 0;
    for (const char *model : models) {
        const Request r{id++, model, 0.0, 0.0};
        const QueuedRequest want = ref.annotate(r, test::sharedCache());
        const QueuedRequest got = meta.annotate(r, bounded);
        EXPECT_EQ(got.estServiceUs, want.estServiceUs) << model;
        EXPECT_EQ(got.safeLevelByClass, want.safeLevelByClass) << model;
        EXPECT_EQ(got.requiredMweight, want.requiredMweight) << model;
        EXPECT_EQ(got.gangChips, want.gangChips) << model;
        if (got.sharded) {
            EXPECT_EQ(got.sharded->plan.modelName, model);
            EXPECT_EQ(meta.gangClasses(got.sharded.get()),
                      ref.gangClasses(want.sharded.get()))
                << model;
            EXPECT_EQ(meta.gangSlots(got.sharded.get()).resident,
                      ref.gangSlots(want.sharded.get()).resident)
                << model;
        } else {
            EXPECT_EQ(got.compiled->modelName, model);
        }
    }
    EXPECT_GT(bounded.evictions(), 0);
}

} // namespace

TEST(ArtifactMeta, BoundedCacheAnnotatesLikeUnbounded)
{
    FleetConfig f;
    f.options = test::fastServeOptions();
    expectBoundedMatchesUnbounded(f);
}

TEST(ArtifactMeta, BoundedCacheGangsAnnotateLikeUnbounded)
{
    FleetConfig f;
    f.chips = 4;
    f.options = test::fastServeOptions();
    f.gangs = {gang("ResNet18"), gang("MobileNetV2")};
    expectBoundedMatchesUnbounded(f);
}
