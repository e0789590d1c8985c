#include "serve/ModelCache.hh"

#include <charconv>
#include <chrono>
#include <type_traits>

#include "workload/ModelZoo.hh"

namespace aim::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Room for a typical single-chip key plus a SKU suffix. */
constexpr size_t kKeyReserve = 320;

/**
 * Append one key field: bools as 0/1, integers and enums in decimal,
 * doubles as exact hex floats (so near-equal values cannot collide),
 * text verbatim.
 */
template <typename T>
void
appendField(std::string &k, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        k += v ? '1' : '0';
    } else if constexpr (std::is_enum_v<T>) {
        appendField(k, static_cast<int>(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
        char buf[40];
        std::to_chars_result r;
        if constexpr (std::is_floating_point_v<T>)
            r = std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::hex);
        else
            r = std::to_chars(buf, buf + sizeof buf, v);
        k.append(buf, r.ptr);
    } else {
        k += v;
    }
}

template <typename... Ts>
void
append(std::string &k, const Ts &...fields)
{
    (appendField(k, fields), ...);
}

void
appendSkuKey(std::string &k, const ChipSku &sku)
{
    // SKU identity for artifact sharing: name + geometry + the
    // electricals that shape compilation or execution.  Two SKUs
    // that differ anywhere here never share an artifact.
    append(k, "|sku|", sku.name, ",g=", sku.pim.groups,
           ",mpg=", sku.pim.macrosPerGroup, ",rows=", sku.pim.rows,
           ",banks=", sku.pim.banks,
           ",wbuf=", sku.weightBufMweightPerMacro,
           ",tops=", sku.cal.peakTops, ",dsc=", sku.pdn.decapScale,
           ",bsc=", sku.pdn.bumpScale);
}

} // namespace

ModelCache::ModelCache(const AimPipeline &pipeline, size_t capacity)
    : pipe(&pipeline), maxEntries(capacity)
{
}

std::string
ModelCache::key(const std::string &model, const AimOptions &opts)
{
    std::string k;
    k.reserve(kKeyReserve);
    // Every option field participates: two artifacts are shared only
    // when they are byte-for-byte interchangeable, including the
    // runtime fields execute() reads back from CompiledModel::options.
    append(k, model, "|lhr=", opts.useLhr, ",l=", opts.lambda,
           ",wds=", opts.useWds, ",d=", opts.wdsDelta,
           ",boost=", opts.useBooster,
           ",agg=", opts.aggressiveAdjustment, ",mode=", opts.mode,
           ",beta=", opts.beta, ",map=", opts.mapper,
           ",ir=", opts.irBackend);
    // The transient electrical knobs shape the artifact only when
    // the Transient backend answers the windows; keying them
    // unconditionally would recompile bit-identical Analytic/Mesh
    // artifacts over an ignored field.
    if (opts.irBackend == power::IrBackendKind::Transient)
        append(k, ",tdc=", opts.transientDecapNf,
               ",tdt=", opts.transientDtNs);
    append(k, ",bits=", opts.bits, ",work=", opts.workScale,
           ",seed=", opts.seed, ",isa=", opts.useIsa);
    // Scheduling knobs shape the artifact (instruction costs + the
    // attached Schedule) only when the scheduler is on; same gating
    // rationale as the transient knobs above.
    // Keyed through the resolved values so the "derive" sentinel and
    // an explicit default-valued knob -- which compile byte-identical
    // programs -- share one artifact instead of aliasing into two.
    if (opts.isaSchedule)
        append(k, ",sched=1,slw=", resolvedIsaLoadUsPerMword(opts),
               ",srt=", resolvedIsaRetuneUs(opts));
    return k;
}

std::string
ModelCache::skuKey(const ChipSku &sku)
{
    std::string k;
    appendSkuKey(k, sku);
    return k;
}

std::string
ModelCache::shardedKey(const std::string &model,
                       const AimOptions &opts,
                       const shard::PartitionConfig &pcfg)
{
    std::string k = key(model, opts);
    append(k, "|shard|chips=", pcfg.chips,
           ",tp=", pcfg.allowTensorParallel,
           ",tsf=", pcfg.tensorSplitFactor,
           ",ways=", pcfg.maxTensorWays,
           ",aff=", pcfg.rtogAffinityWeight);
    // Capacity-aware plans depend on the member capacities; keying
    // them keeps a uniform and a weighted plan of the same shape
    // from aliasing.
    if (!pcfg.memberCapacity.empty()) {
        k += ",cap=";
        for (size_t i = 0; i < pcfg.memberCapacity.size(); ++i)
            append(k, i ? ";" : "", pcfg.memberCapacity[i]);
    }
    return k;
}

template <typename Compile>
ModelCache::Entry &
ModelCache::lookup(const std::string &key, Compile &&compile)
{
    auto it = entries.find(key);
    if (it != entries.end()) {
        ++hitCount;
        touch(it->second);
        return it->second;
    }
    ++missCount;
    Entry entry;
    const auto t0 = Clock::now();
    compile(entry);
    compileWallMs += msSince(t0);
    touch(entry);
    it = entries.emplace(key, std::move(entry)).first;
    enforceCapacity();
    return it->second;
}

std::shared_ptr<const CompiledModel>
ModelCache::get(const std::string &model, const AimOptions &opts)
{
    return lookup(key(model, opts), [&](Entry &entry) {
        entry.plain = std::make_shared<const CompiledModel>(
            pipe->compile(workload::modelByName(model), opts));
    }).plain;
}

std::shared_ptr<const shard::ShardedModel>
ModelCache::getSharded(const std::string &model,
                       const AimOptions &opts,
                       const shard::PartitionConfig &pcfg)
{
    return lookup(
               shardedKey(model, opts, pcfg),
               [&](Entry &entry) {
                   entry.sharded =
                       std::make_shared<const shard::ShardedModel>(
                           shard::compileSharded(
                               *pipe, workload::modelByName(model),
                               opts, pcfg));
               })
        .sharded;
}

std::shared_ptr<const CompiledModel>
ModelCache::get(const std::string &model, const AimOptions &opts,
                const ChipSku &sku)
{
    std::string k = key(model, opts);
    appendSkuKey(k, sku);
    return lookup(k, [&](Entry &entry) {
        // Compiled against the SKU's own chip, not the constructor
        // pipeline's: a small bin tiles into different rounds than
        // the big part.
        const AimPipeline sku_pipe(sku.pim, sku.cal);
        entry.plain = std::make_shared<const CompiledModel>(
            sku_pipe.compile(workload::modelByName(model), opts));
    }).plain;
}

std::shared_ptr<const shard::ShardedModel>
ModelCache::getSharded(const std::string &model,
                       const AimOptions &opts,
                       const shard::PartitionConfig &pcfg,
                       const std::vector<ChipSku> &slotSkus)
{
    if (slotSkus.empty())
        return getSharded(model, opts, pcfg);
    std::string k = shardedKey(model, opts, pcfg);
    k += "|slots|";
    for (size_t i = 0; i < slotSkus.size(); ++i)
        append(k, i ? "," : "", slotSkus[i].name);
    return lookup(k, [&](Entry &entry) {
        std::vector<pim::PimConfig> slot_pim;
        std::vector<power::Calibration> slot_cal;
        slot_pim.reserve(slotSkus.size());
        slot_cal.reserve(slotSkus.size());
        for (const auto &sku : slotSkus) {
            slot_pim.push_back(sku.pim);
            slot_cal.push_back(sku.cal);
        }
        entry.sharded =
            std::make_shared<const shard::ShardedModel>(
                shard::compileShardedSlots(
                    workload::modelByName(model), opts, pcfg,
                    slot_pim, slot_cal));
    }).sharded;
}

void
ModelCache::setCapacity(size_t capacity)
{
    maxEntries = capacity;
    enforceCapacity();
}

void
ModelCache::enforceCapacity()
{
    if (maxEntries == 0)
        return;
    while (entries.size() > maxEntries) {
        auto lru = entries.begin();
        for (auto it = entries.begin(); it != entries.end(); ++it)
            if (it->second.lastUse < lru->second.lastUse)
                lru = it;
        entries.erase(lru);
        ++evictionCount;
    }
}

void
ModelCache::clear()
{
    entries.clear();
    hitCount = 0;
    missCount = 0;
    evictionCount = 0;
    compileWallMs = 0.0;
}

} // namespace aim::serve
