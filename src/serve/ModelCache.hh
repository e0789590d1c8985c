/**
 * @file
 * Compiled-model cache of the serving layer.  AimPipeline::compile
 * (weight synthesis + QAT/LHR + WDS + tiling) costs seconds per
 * model; chip execution costs milliseconds.  A service amortizes the
 * offline flow by compiling each (model, AimOptions) combination once
 * and sharing the immutable artifact across every request, chip and
 * thread that needs it.
 *
 * The cache holds two artifact kinds under one accounting scheme:
 * single-chip CompiledModels and multi-chip shard::ShardedModels
 * (keyed additionally on the partition shape).  An optional capacity
 * bounds the artifact count with least-recently-used eviction --
 * evicted artifacts stay alive for holders of their shared_ptr and
 * simply recompile on the next get().
 */

#ifndef AIM_SERVE_MODELCACHE_HH
#define AIM_SERVE_MODELCACHE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aim/Aim.hh"
#include "serve/ChipSku.hh"
#include "shard/Partitioner.hh"
#include "shard/ShardedRuntime.hh"

namespace aim::serve
{

/** Keyed store of immutable compiled artifacts. */
class ModelCache
{
  public:
    /**
     * @param pipeline compiles artifacts on miss; must outlive us
     * @param capacity max artifacts held at once (both kinds
     *        combined); 0 = unbounded
     */
    explicit ModelCache(const AimPipeline &pipeline,
                        size_t capacity = 0);

    /**
     * Fetch the artifact for a zoo model under @p opts, compiling on
     * first use.  The returned pointer stays valid for as long as the
     * caller holds it, even across eviction.
     */
    std::shared_ptr<const CompiledModel>
    get(const std::string &model, const AimOptions &opts);

    /**
     * Fetch the sharded artifact for a zoo model under @p opts and
     * partition shape @p pcfg, compiling every stage on first use.
     * Shares the accounting (and the capacity) of the single-chip
     * entries.
     */
    std::shared_ptr<const shard::ShardedModel>
    getSharded(const std::string &model, const AimOptions &opts,
               const shard::PartitionConfig &pcfg);

    /**
     * Per-SKU artifact of a heterogeneous fleet: compiled with the
     * SKU's geometry and calibration instead of the constructor
     * pipeline's, keyed additionally on the SKU identity (skuKey),
     * so the same model on two SKUs yields two distinct artifacts
     * that never alias.
     */
    std::shared_ptr<const CompiledModel>
    get(const std::string &model, const AimOptions &opts,
        const ChipSku &sku);

    /**
     * Per-SKU sharded artifact: each pipeline stage compiles with
     * the SKU of its member slot (@p slotSkus, one entry per slot of
     * the plan; tensor-parallel stages use their first slot's).
     * Keyed on the partition (including its memberCapacity) plus the
     * slot SKU names.  Empty @p slotSkus compiles every stage on the
     * constructor pipeline's chip: the three-argument overload.
     */
    std::shared_ptr<const shard::ShardedModel>
    getSharded(const std::string &model, const AimOptions &opts,
               const shard::PartitionConfig &pcfg,
               const std::vector<ChipSku> &slotSkus);

    /** Cache key of a (model, options) combination: every field that
     * shapes the artifact, doubles as exact hex floats. */
    static std::string key(const std::string &model,
                           const AimOptions &opts);

    /** Key suffix identifying a SKU: name, geometry, weight-buffer
     * depth, headline calibration and PDN corner. */
    static std::string skuKey(const ChipSku &sku);

    /** Cache key of a sharded (model, options, partition) combo. */
    static std::string shardedKey(const std::string &model,
                                  const AimOptions &opts,
                                  const shard::PartitionConfig &pcfg);

    /** Lookups served from the cache. */
    long hits() const { return hitCount; }

    /** Lookups that compiled a new artifact. */
    long misses() const { return missCount; }

    /** Artifacts dropped to respect the capacity. */
    long evictions() const { return evictionCount; }

    /** Artifacts currently held (both kinds). */
    size_t size() const { return entries.size(); }

    /** Max artifacts held at once; 0 = unbounded. */
    size_t capacity() const { return maxEntries; }

    /**
     * Change the capacity; 0 = unbounded.  Shrinking evicts
     * least-recently-used artifacts immediately.
     */
    void setCapacity(size_t capacity);

    /** Host wall-clock time spent compiling on misses [ms]. */
    double compileMs() const { return compileWallMs; }

    /** Drop every artifact and reset all counters. */
    void clear();

  private:
    /** One cached artifact of either kind. */
    struct Entry
    {
        std::shared_ptr<const CompiledModel> plain;
        std::shared_ptr<const shard::ShardedModel> sharded;
        /** Recency stamp (monotonic get() counter). */
        uint64_t lastUse = 0;
    };

    /** Mark @p it used now. */
    void touch(Entry &entry) { entry.lastUse = ++useTick; }

    /**
     * Shared lookup flow of both artifact kinds: hit accounting on
     * an existing entry, otherwise miss accounting around the timed
     * @p compile (which fills its slot of the new Entry), then
     * capacity enforcement.  Returns the cached entry.
     */
    template <typename Compile>
    Entry &lookup(const std::string &key, Compile &&compile);

    /** Evict least-recently-used entries down to the capacity. */
    void enforceCapacity();

    const AimPipeline *pipe;
    std::map<std::string, Entry> entries;
    size_t maxEntries = 0;
    uint64_t useTick = 0;
    long hitCount = 0;
    long missCount = 0;
    long evictionCount = 0;
    double compileWallMs = 0.0;
};

} // namespace aim::serve

#endif // AIM_SERVE_MODELCACHE_HH
