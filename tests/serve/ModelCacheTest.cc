#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "serve/ModelCache.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

struct Fixture
{
    pim::PimConfig cfg;
    power::Calibration cal = power::defaultCalibration();
    AimPipeline pipe{cfg, cal};
    ModelCache cache{pipe};

    /** Cheap options: no QAT, so a compile is milliseconds. */
    AimOptions quick() const
    {
        AimOptions o;
        o.useLhr = false;
        o.workScale = 0.05;
        return o;
    }
};

} // namespace

TEST(ModelCache, MissCompilesThenHitShares)
{
    Fixture f;
    const auto opts = f.quick();
    const auto a = f.cache.get("ResNet18", opts);
    EXPECT_EQ(f.cache.misses(), 1);
    EXPECT_EQ(f.cache.hits(), 0);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->modelName, "ResNet18");
    EXPECT_FALSE(a->rounds.empty());

    const auto b = f.cache.get("ResNet18", opts);
    EXPECT_EQ(f.cache.misses(), 1);
    EXPECT_EQ(f.cache.hits(), 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(f.cache.size(), 1u);
}

TEST(ModelCache, DistinctOptionsCompileSeparately)
{
    Fixture f;
    auto opts = f.quick();
    const auto a = f.cache.get("ResNet18", opts);
    opts.wdsDelta = 8;
    const auto b = f.cache.get("ResNet18", opts);
    EXPECT_EQ(f.cache.misses(), 2);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(f.cache.size(), 2u);
}

TEST(ModelCache, DistinctModelsCompileSeparately)
{
    Fixture f;
    const auto opts = f.quick();
    const auto a = f.cache.get("ResNet18", opts);
    const auto b = f.cache.get("MobileNetV2", opts);
    EXPECT_EQ(f.cache.misses(), 2);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(b->modelName, "MobileNetV2");
}

TEST(ModelCache, KeyCoversModelAndOptions)
{
    AimOptions opts;
    const auto base = ModelCache::key("ResNet18", opts);
    EXPECT_NE(base, ModelCache::key("GPT2", opts));
    EXPECT_EQ(base, ModelCache::key("ResNet18", opts));

    // Every keyed field, one at a time; doubles move by one ulp, so
    // near-equal values must not collide either.
    const auto ulp = [](double v) { return std::nextafter(v, 1e9); };
    const std::vector<
        std::pair<const char *, std::function<void(AimOptions &)>>>
        edits = {
            {"useLhr", [](AimOptions &o) { o.useLhr = !o.useLhr; }},
            {"lambda", [&](AimOptions &o) { o.lambda = ulp(o.lambda); }},
            {"useWds", [](AimOptions &o) { o.useWds = !o.useWds; }},
            {"wdsDelta", [](AimOptions &o) { o.wdsDelta = 8; }},
            {"useBooster",
             [](AimOptions &o) { o.useBooster = !o.useBooster; }},
            {"aggressiveAdjustment",
             [](AimOptions &o) {
                 o.aggressiveAdjustment = !o.aggressiveAdjustment;
             }},
            {"mode",
             [](AimOptions &o) { o.mode = booster::BoostMode::LowPower; }},
            {"beta", [](AimOptions &o) { o.beta += 1; }},
            {"mapper",
             [](AimOptions &o) {
                 o.mapper = mapping::MapperKind::Sequential;
             }},
            {"irBackend",
             [](AimOptions &o) { o.irBackend = power::IrBackendKind::Mesh; }},
            {"bits", [](AimOptions &o) { o.bits = 4; }},
            {"workScale",
             [&](AimOptions &o) { o.workScale = ulp(o.workScale); }},
            {"seed", [](AimOptions &o) { o.seed = 1234; }},
            {"useIsa", [](AimOptions &o) { o.useIsa = true; }},
            {"isaSchedule",
             [](AimOptions &o) {
                 o.useIsa = true;
                 o.isaSchedule = true;
             }},
        };
    for (const auto &[field, edit] : edits) {
        AimOptions changed = opts;
        edit(changed);
        EXPECT_NE(base, ModelCache::key("ResNet18", changed)) << field;
    }

    // The transient knobs are keyed on the Transient backend only.
    AimOptions transient = opts;
    transient.irBackend = power::IrBackendKind::Transient;
    const auto tkey = ModelCache::key("ResNet18", transient);
    AimOptions changed = transient;
    changed.transientDecapNf = ulp(changed.transientDecapNf);
    EXPECT_NE(tkey, ModelCache::key("ResNet18", changed));
    changed = transient;
    changed.transientDtNs = ulp(changed.transientDtNs);
    EXPECT_NE(tkey, ModelCache::key("ResNet18", changed));
    changed = opts;
    changed.transientDecapNf = ulp(changed.transientDecapNf);
    changed.transientDtNs = ulp(changed.transientDtNs);
    EXPECT_EQ(base, ModelCache::key("ResNet18", changed));

    // The schedule costs are keyed with isaSchedule only, through
    // their resolved values: the "derive" sentinel and the explicit
    // default compile the same program and share one key.
    AimOptions sched = opts;
    sched.useIsa = true;
    sched.isaSchedule = true;
    const auto skey = ModelCache::key("ResNet18", sched);
    changed = sched;
    changed.isaLoadUsPerMword = ulp(kDefaultIsaLoadUsPerMword);
    EXPECT_NE(skey, ModelCache::key("ResNet18", changed));
    changed = sched;
    changed.isaRetuneUs = ulp(kDefaultIsaRetuneUs);
    EXPECT_NE(skey, ModelCache::key("ResNet18", changed));
    changed = sched;
    changed.isaLoadUsPerMword = kDefaultIsaLoadUsPerMword;
    changed.isaRetuneUs = kDefaultIsaRetuneUs;
    EXPECT_EQ(skey, ModelCache::key("ResNet18", changed));
    changed = opts;
    changed.isaLoadUsPerMword = 3.5;
    changed.isaRetuneUs = 0.25;
    EXPECT_EQ(base, ModelCache::key("ResNet18", changed));
}

TEST(ModelCache, ArtifactHeldAcrossClear)
{
    Fixture f;
    const auto opts = f.quick();
    const auto a = f.cache.get("ResNet18", opts);
    f.cache.clear();
    EXPECT_EQ(f.cache.size(), 0u);
    EXPECT_EQ(f.cache.misses(), 0);
    // The shared_ptr keeps the artifact alive past eviction.
    EXPECT_EQ(a->modelName, "ResNet18");
    const auto b = f.cache.get("ResNet18", opts);
    EXPECT_EQ(f.cache.misses(), 1);
    EXPECT_NE(a.get(), b.get());
}

TEST(ModelCache, CompileTimeAccountedOnMissOnly)
{
    Fixture f;
    const auto opts = f.quick();
    f.cache.get("ResNet18", opts);
    const double after_miss = f.cache.compileMs();
    EXPECT_GT(after_miss, 0.0);
    f.cache.get("ResNet18", opts);
    EXPECT_EQ(f.cache.compileMs(), after_miss);
}

TEST(ModelCache, UnboundedByDefault)
{
    Fixture f;
    EXPECT_EQ(f.cache.capacity(), 0u);
    const auto opts = f.quick();
    f.cache.get("ResNet18", opts);
    f.cache.get("MobileNetV2", opts);
    f.cache.get("GPT2", opts);
    EXPECT_EQ(f.cache.size(), 3u);
    EXPECT_EQ(f.cache.evictions(), 0);
}

TEST(ModelCache, CapacityEvictsLeastRecentlyUsed)
{
    Fixture f;
    ModelCache cache(f.pipe, 2);
    const auto opts = f.quick();
    cache.get("ResNet18", opts);
    cache.get("MobileNetV2", opts);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0);
    // Touch ResNet18 so MobileNetV2 becomes the LRU victim.
    cache.get("ResNet18", opts);
    cache.get("GPT2", opts);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1);
    // ResNet18 survived; MobileNetV2 recompiles.
    EXPECT_EQ(cache.misses(), 3);
    cache.get("ResNet18", opts);
    EXPECT_EQ(cache.misses(), 3);
    cache.get("MobileNetV2", opts);
    EXPECT_EQ(cache.misses(), 4);
    EXPECT_EQ(cache.evictions(), 2);
}

TEST(ModelCache, EvictedArtifactStaysAliveForHolders)
{
    Fixture f;
    ModelCache cache(f.pipe, 1);
    const auto opts = f.quick();
    const auto a = cache.get("ResNet18", opts);
    cache.get("MobileNetV2", opts); // evicts ResNet18
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1);
    EXPECT_EQ(a->modelName, "ResNet18");
    EXPECT_FALSE(a->rounds.empty());
}

TEST(ModelCache, SetCapacityShrinksImmediately)
{
    Fixture f;
    const auto opts = f.quick();
    f.cache.get("ResNet18", opts);
    f.cache.get("MobileNetV2", opts);
    f.cache.get("GPT2", opts);
    f.cache.setCapacity(1);
    EXPECT_EQ(f.cache.size(), 1u);
    EXPECT_EQ(f.cache.evictions(), 2);
    EXPECT_EQ(f.cache.capacity(), 1u);
    // The most recently used artifact (GPT2) survives.
    f.cache.get("GPT2", opts);
    EXPECT_EQ(f.cache.hits(), 1);
}

TEST(ModelCache, HitMissAccountingUnderInterleavedTrace)
{
    Fixture f;
    ModelCache cache(f.pipe, 2);
    const auto opts = f.quick();
    // Interleaved 3-model trace over a 2-artifact cache: ResNet18
    // and MobileNetV2 keep alternating as the hot pair while GPT2
    // periodically storms through and steals a slot.
    const char *trace[] = {"ResNet18", "MobileNetV2", "ResNet18",
                           "MobileNetV2", "GPT2",        "ResNet18",
                           "MobileNetV2", "ResNet18",    "GPT2",
                           "MobileNetV2"};
    long misses = 0;
    long hits = 0;
    for (const char *model : trace) {
        const long before = cache.misses();
        const auto artifact = cache.get(model, opts);
        EXPECT_EQ(artifact->modelName, model);
        (cache.misses() > before ? misses : hits) += 1;
        EXPECT_LE(cache.size(), 2u);
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(hits + misses, 10);
    // Every request either hit or compiled; evictions happened
    // (3 distinct models through 2 slots) but never exceeded need.
    EXPECT_GT(cache.evictions(), 0);
    EXPECT_EQ(cache.evictions(), misses - 2);
}

TEST(ModelCache, ShardedArtifactsCachedAlongsidePlain)
{
    Fixture f;
    const auto opts = f.quick();
    shard::PartitionConfig pcfg;
    pcfg.chips = 2;
    const auto sharded = f.cache.getSharded("ResNet18", opts, pcfg);
    EXPECT_EQ(f.cache.misses(), 1);
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(sharded->plan.modelName, "ResNet18");
    EXPECT_GT(sharded->stages.size(), 1u);

    // Hit on the identical (model, options, partition) triple.
    const auto again = f.cache.getSharded("ResNet18", opts, pcfg);
    EXPECT_EQ(again.get(), sharded.get());
    EXPECT_EQ(f.cache.hits(), 1);

    // The plain artifact of the same model is a distinct entry.
    const auto plain = f.cache.get("ResNet18", opts);
    EXPECT_EQ(plain->modelName, "ResNet18");
    EXPECT_EQ(f.cache.misses(), 2);
    EXPECT_EQ(f.cache.size(), 2u);

    // A different partition shape compiles separately.
    pcfg.chips = 3;
    f.cache.getSharded("ResNet18", opts, pcfg);
    EXPECT_EQ(f.cache.misses(), 3);
    EXPECT_EQ(f.cache.size(), 3u);
}

TEST(ModelCache, ShardedKeyCoversPartitionShape)
{
    AimOptions opts;
    shard::PartitionConfig pcfg;
    const auto base =
        ModelCache::shardedKey("Llama3-8B", opts, pcfg);
    EXPECT_NE(base, ModelCache::key("Llama3-8B", opts));
    auto changed = pcfg;
    changed.chips = 7;
    EXPECT_NE(base,
              ModelCache::shardedKey("Llama3-8B", opts, changed));
    changed = pcfg;
    changed.allowTensorParallel = !changed.allowTensorParallel;
    EXPECT_NE(base,
              ModelCache::shardedKey("Llama3-8B", opts, changed));
    changed = pcfg;
    changed.maxTensorWays += 2;
    EXPECT_NE(base,
              ModelCache::shardedKey("Llama3-8B", opts, changed));
    EXPECT_EQ(base, ModelCache::shardedKey("Llama3-8B", opts, pcfg));
}
