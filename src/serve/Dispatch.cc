#include "serve/Dispatch.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "isa/Engine.hh"
#include "util/Logging.hh"
#include "workload/ModelZoo.hh"

namespace aim::serve
{

FleetSkus::FleetSkus(const FleetConfig &fcfg)
    : skus(fcfg.skus), assignment(fcfg.skuOf), chips(fcfg.chips)
{
    if (!skus.empty())
        aim_assert(assignment.size() ==
                       static_cast<size_t>(fcfg.chips),
                   "skuOf must assign a SKU to each of the ",
                   fcfg.chips, " chips, got ", assignment.size(),
                   " entries");
}

double
FleetSkus::capacity(int cls) const
{
    if (!heterogeneous())
        return std::numeric_limits<double>::infinity();
    return skus[static_cast<size_t>(cls)].capacityMweight();
}

std::vector<int>
FleetSkus::gangSlotClasses(int gang_chips, double share_mweight) const
{
    if (!heterogeneous())
        return std::vector<int>(static_cast<size_t>(gang_chips), 0);
    // Rank chips by (capacity desc, id asc) and take the most
    // capable gang_chips that hold the share -- slot 0 gets the
    // biggest part, matching the capacity-aware stage sizing.
    std::vector<int> capable;
    for (int c = 0; c < chips; ++c)
        if (fits(classOf(c), share_mweight))
            capable.push_back(c);
    if (static_cast<int>(capable.size()) < gang_chips)
        return {};
    std::sort(capable.begin(), capable.end(), [&](int a, int b) {
        const double ca = capacity(classOf(a));
        const double cb = capacity(classOf(b));
        if (ca != cb)
            return ca > cb;
        return a < b;
    });
    std::vector<int> slot_classes;
    slot_classes.reserve(static_cast<size_t>(gang_chips));
    for (int j = 0; j < gang_chips; ++j)
        slot_classes.push_back(
            classOf(capable[static_cast<size_t>(j)]));
    return slot_classes;
}

ChipPool::ChipPool(int chips)
    : slots(static_cast<size_t>(chips))
{
    aim_assert(chips >= 1, "chip pool needs at least one chip, got ",
               chips);
}

std::vector<int>
ChipPool::acquireGang(const std::vector<int> &slot_classes) const
{
    std::vector<int> member;
    member.reserve(slot_classes.size());
    std::vector<char> taken(slots.size(), 0);
    for (const int cls : slot_classes) {
        int pick = -1;
        for (int i = 0; i < size(); ++i) {
            const auto &s = slots[static_cast<size_t>(i)];
            if (!s.active || taken[static_cast<size_t>(i)] ||
                classOf(i) != cls)
                continue;
            if (pick < 0 ||
                s.freeAtUs <
                    slots[static_cast<size_t>(pick)].freeAtUs)
                pick = i;
        }
        if (pick < 0)
            return {};
        taken[static_cast<size_t>(pick)] = 1;
        member.push_back(pick);
    }
    return member;
}

void
ChipPool::setClassOf(std::vector<int> chip_classes)
{
    aim_assert(chip_classes.size() == slots.size(),
               "classOf needs one class per chip: ",
               chip_classes.size(), " for ", slots.size());
    classes = std::move(chip_classes);
}

void
ChipPool::setClassFloor(std::vector<int> floor)
{
    classFloor = std::move(floor);
}

int
ChipPool::activeCountOfClass(int cls) const
{
    int n = 0;
    for (int i = 0; i < size(); ++i)
        n += (slots[static_cast<size_t>(i)].active &&
              classOf(i) == cls)
                 ? 1
                 : 0;
    return n;
}

bool
ChipPool::activateOneOfClasses(const std::vector<int> &slot_classes)
{
    for (int i = 0; i < size(); ++i) {
        auto &s = slots[static_cast<size_t>(i)];
        if (s.active)
            continue;
        const int cls = classOf(i);
        if (std::find(slot_classes.begin(), slot_classes.end(),
                      cls) != slot_classes.end()) {
            s.active = true;
            return true;
        }
    }
    return false;
}

int
ChipPool::activeCount() const
{
    int n = 0;
    for (const auto &s : slots)
        n += s.active ? 1 : 0;
    return n;
}

bool
ChipPool::activateOne()
{
    for (auto &s : slots)
        if (!s.active) {
            s.active = true;
            return true;
        }
    return false;
}

bool
ChipPool::deactivateOne(int min_active)
{
    if (activeCount() <= std::max(min_active, 1))
        return false;
    for (int i = size(); i-- > 0;) {
        auto &s = slots[static_cast<size_t>(i)];
        if (!s.active)
            continue;
        // Respect the per-class floors: a chip whose class is down
        // to the gang-required count stays up even when the fleet
        // as a whole could shrink (the capability-blind count floor
        // alone let the autoscaler strand gangs on a mixed fleet).
        const int cls = classOf(i);
        if (cls < static_cast<int>(classFloor.size()) &&
            activeCountOfClass(cls) <=
                classFloor[static_cast<size_t>(cls)])
            continue;
        s.active = false;
        return true;
    }
    return false;
}

DispatchCost
dispatchCost(const ChipSlot &chip, const std::string &model,
             int safe_level, double reload_us, bool use_booster,
             double level_step_pct, double retune_us_per_step,
             double overlap_us)
{
    DispatchCost cost;
    if (chip.resident != model) {
        // ISA-path overlap: the successor's LOAD_WEIGHT streams
        // while the predecessor's slowest Sets finish their trailing
        // windows, so the tail-idle budget hides that much of the
        // reload.  Resident hits never pay a reload, so the budget
        // only matters on a switch.
        const double saved =
            std::min(reload_us, std::max(overlap_us, 0.0));
        cost.reloadUs = reload_us - saved;
        cost.overlapSavedUs = saved;
        cost.modelSwitch = true;
    }
    if (use_booster && level_step_pct > 0)
        cost.retuneUs = std::abs(safe_level - chip.safeLevel) /
                        level_step_pct * retune_us_per_step;
    return cost;
}

RequestExecutor::RequestExecutor(const pim::PimConfig &cfg,
                                 const power::Calibration &cal,
                                 const AimOptions &options)
    : workScale(options.workScale)
{
    const sim::RunConfig rcfg = runConfigFor(options);
    if (options.useIsa)
        engine = std::make_unique<const isa::Engine>(cfg, cal, rcfg);
    else
        runtime =
            std::make_unique<const sim::Runtime>(cfg, cal, rcfg);
}

RequestExecutor::RequestExecutor(const ChipSku &sku,
                                 const AimOptions &options)
    : workScale(options.workScale)
{
    const sim::RunConfig rcfg = runConfigForSku(options, sku);
    if (options.useIsa)
        engine = std::make_unique<const isa::Engine>(sku.pim,
                                                     sku.cal, rcfg);
    else
        runtime = std::make_unique<const sim::Runtime>(sku.pim,
                                                       sku.cal, rcfg);
}

RequestExecutor::~RequestExecutor() = default;

ExecResult
RequestExecutor::run(const CompiledModel &compiled, uint64_t seed,
                     std::unique_ptr<power::IrState> *carry,
                     exec::ExecPool *pool) const
{
    ExecResult out;
    if (engine) {
        aim_assert(compiled.program, "useIsa fleet executes ",
                   compiled.modelName,
                   " but its artifact carries no lowered program");
        const isa::EngineReport er = engine->run(
            *compiled.program, compiled.stream, seed, carry,
            nullptr, compiled.schedule.get(), pool);
        out.run = er.run;
        out.overlapUs = er.tailIdleNs / 1000.0 / workScale;
        // Scheduled artifacts are billed their cost-modelled
        // makespan (loads/retunes charged at instruction grain,
        // pipelining credited); plain ISA keeps the physics wall.
        out.serviceNs = compiled.schedule ? er.scheduledMakespanNs
                                          : er.run.wallTimeNs;
        out.scheduleSavedUs =
            er.scheduleSavedNs / 1000.0 / workScale;
    } else {
        out.run = runtime->run(compiled.rounds, compiled.stream,
                               seed, carry, pool);
        out.serviceNs = out.run.wallTimeNs;
    }
    return out;
}

std::vector<std::unique_ptr<const RequestExecutor>>
classExecutors(const FleetSkus &skus, const pim::PimConfig &cfg,
               const power::Calibration &cal, const AimOptions &options)
{
    std::vector<std::unique_ptr<const RequestExecutor>> executors;
    for (int cls = 0; cls < skus.classes(); ++cls) {
        const ChipSku *sku = skus.sku(cls);
        executors.push_back(
            sku ? std::make_unique<const RequestExecutor>(*sku, options)
                : std::make_unique<const RequestExecutor>(cfg, cal,
                                                          options));
    }
    return executors;
}

double
prepareGangMembers(ChipPool &pool, const std::vector<int> &member,
                   const ArtifactMeta::GangSlots &slots,
                   double service_us, bool use_booster,
                   double level_step_pct, double retune_us_per_step,
                   std::vector<ChipUsage> &usage)
{
    double prep = 0.0;
    for (size_t j = 0; j < member.size(); ++j) {
        ChipSlot &chip = pool.slot(member[j]);
        ChipUsage &u = usage[static_cast<size_t>(member[j])];
        const DispatchCost cost = dispatchCost(
            chip, slots.resident[j], slots.level[j],
            slots.reloadUs[j], use_booster, level_step_pct,
            retune_us_per_step);
        if (cost.modelSwitch)
            ++u.modelSwitches;
        prep = std::max(prep, cost.reloadUs + cost.retuneUs);
        u.reloadUs += cost.reloadUs;
        u.retuneUs += cost.retuneUs;
        u.busyUs += service_us;
        ++u.served;
        chip.resident = slots.resident[j];
        chip.safeLevel = slots.level[j];
        // The stage execution is opaque to the dispatch layer; no
        // tail window survives a gang placement.
        chip.overlapUs = 0.0;
    }
    return prep;
}

ArtifactMeta::ArtifactMeta(const FleetConfig &fcfg,
                           const power::Calibration &cal,
                           const pim::PimConfig &cfg)
    : fcfg(&fcfg), cal(cal), cfg(cfg), skus(fcfg)
{
    classTable.reserve(static_cast<size_t>(skus.classes()));
    for (int cls = 0; cls < skus.classes(); ++cls) {
        const ChipSku *sku = skus.sku(cls);
        classTable.emplace_back(sku ? sku->cal : cal);
    }
    for (const auto &gang : fcfg.gangs)
        gangOf[gang.model] = &gang;
}

const std::vector<int> &
ArtifactMeta::gangClasses(const shard::ShardedModel *m) const
{
    return gangInfo.at(m->plan.modelName).slotClasses;
}

const std::vector<const sim::Runtime *> &
ArtifactMeta::stageRuntimes(const shard::ShardedModel *m) const
{
    return gangInfo.at(m->plan.modelName).stageRuntimes;
}

const GangSpec *
ArtifactMeta::gangSpec(const std::string &model) const
{
    const auto it = gangOf.find(model);
    return it != gangOf.end() ? it->second : nullptr;
}

double
ArtifactMeta::reloadUs(const std::string &model) const
{
    return models.at(model).reloadUs;
}

const ArtifactMeta::GangSlots &
ArtifactMeta::gangSlots(const shard::ShardedModel *m) const
{
    return gangInfo.at(m->plan.modelName).slots;
}

const ArtifactMeta::ModelInfo &
ArtifactMeta::modelInfo(const std::string &model)
{
    auto it = models.find(model);
    if (it == models.end()) {
        ModelInfo info;
        info.mweight =
            workload::modelByName(model).totalWeights() / 1e6;
        info.reloadUs = info.mweight * fcfg->reloadUsPerMweight;
        it = models.emplace(model, info).first;
    }
    return it->second;
}

const ArtifactMeta::GangRoute &
ArtifactMeta::gangRoute(const GangSpec &gang)
{
    auto it = gangRoutes.find(gang.model);
    if (it != gangRoutes.end())
        return it->second;
    // A gang member hosts its stage's share of the weights: route
    // every slot to a class that can hold that share (biggest parts
    // first, matching the capacity-aware stage sizing) and compile
    // each stage against its slot's chip.
    const double share =
        modelInfo(gang.model).mweight / gang.partition.chips;
    GangRoute route;
    route.slotClasses =
        skus.gangSlotClasses(gang.partition.chips, share);
    if (route.slotClasses.empty())
        aim_fatal("gang for model '", gang.model, "' needs ",
                  gang.partition.chips, " chips able to hold ~", share,
                  " Mweight each, but the fleet cannot supply them "
                  "(validateFleetConfig should have rejected this)");
    route.partition = gang.partition;
    for (const int cls : route.slotClasses)
        if (const ChipSku *sku = skus.sku(cls))
            route.slotSkus.push_back(*sku);
    if (!route.slotSkus.empty()) {
        route.partition.memberCapacity.clear();
        for (const auto &sku : route.slotSkus)
            route.partition.memberCapacity.push_back(
                sku.capacityMweight());
    }
    return gangRoutes.emplace(gang.model, std::move(route))
        .first->second;
}

const ArtifactMeta::ArtifactInfo &
ArtifactMeta::artifactInfoOf(const std::string &model,
                             const CompiledModel &art, int cls)
{
    auto it = artifactInfo.find({model, cls});
    if (it == artifactInfo.end()) {
        ArtifactInfo info;
        const double full_macs =
            art.scaledMacs() / fcfg->options.workScale;
        info.estServiceUs = 2.0 * full_macs / cal.peakTops / 1e6;
        info.safeLevel = artifactSafeLevel(
            art, classTable[static_cast<size_t>(cls)]);
        it = artifactInfo.emplace(std::make_pair(model, cls), info)
                 .first;
    }
    return it->second;
}

const ArtifactMeta::GangInfo &
ArtifactMeta::gangInfoOf(const std::string &model,
                         const shard::ShardedModel &sharded,
                         const GangRoute &route)
{
    auto it = gangInfo.find(model);
    if (it != gangInfo.end())
        return it->second;
    GangInfo info;
    info.estServiceUs =
        2.0 * (sharded.scaledMacs() / fcfg->options.workScale) /
        cal.peakTops / 1e6;
    info.safeLevel = 0; // worst stage level below
    // Stage runtimes, one per distinct member class: a SKU stage
    // runs on its slot's part with the SKU's PDN corner, a SKU-less
    // fleet's on the engine's chip under the artifact's options.
    std::map<int, const sim::Runtime *> class_runtime;
    size_t slot = 0;
    for (size_t s = 0; s < sharded.stages.size(); ++s) {
        const auto &stage = sharded.plan.stages[s];
        // The stage parks at the level its *own* chip's V-f table
        // demands (TP members share the first slot's).
        const int cls = route.slotClasses[slot];
        const int level = artifactSafeLevel(
            sharded.stages[s], classTable[static_cast<size_t>(cls)]);
        info.safeLevel = std::max(info.safeLevel, level);
        const double reload =
            stage.weights / 1e6 * fcfg->reloadUsPerMweight;
        for (int w = 0; w < stage.ways; ++w) {
            info.slots.resident.push_back(stage.subModel.name);
            info.slots.level.push_back(level);
            info.slots.reloadUs.push_back(reload);
            info.slotClasses.push_back(
                route.slotClasses[slot + static_cast<size_t>(w)]);
        }
        const sim::Runtime *&runtime = class_runtime[cls];
        if (!runtime) {
            const ChipSku *sku = skus.sku(cls);
            gangRuntimes.push_back(
                sku ? std::make_unique<const sim::Runtime>(
                          sku->pim, sku->cal,
                          runConfigForSku(fcfg->options, *sku))
                    : std::make_unique<const sim::Runtime>(
                          cfg, cal, runConfigFor(sharded.options)));
            runtime = gangRuntimes.back().get();
        }
        info.stageRuntimes.push_back(runtime);
        slot += static_cast<size_t>(stage.ways);
    }
    return gangInfo.emplace(model, std::move(info)).first->second;
}

QueuedRequest
ArtifactMeta::annotate(const Request &request, ModelCache &cache)
{
    const auto nclasses = static_cast<size_t>(skus.classes());
    QueuedRequest q;
    q.request = request;
    q.compiledByClass.assign(nclasses, nullptr);
    if (const GangSpec *gang = gangSpec(request.model)) {
        const GangRoute &route = gangRoute(*gang);
        q.sharded = cache.getSharded(request.model, fcfg->options,
                                     route.partition, route.slotSkus);
        q.gangChips = q.sharded->totalChips();
        q.requiredMweight = modelInfo(request.model).mweight /
                            gang->partition.chips;
        const GangInfo &info =
            gangInfoOf(request.model, *q.sharded, route);
        q.estServiceUs = info.estServiceUs;
        q.safeLevelByClass.assign(nclasses, info.safeLevel);
        return q;
    }

    // One artifact per class that can hold the model; the SJF key
    // comes from the most capable one.  A model that no chip of the
    // fleet can hold would queue forever: fail loudly instead.
    const ModelInfo &model = modelInfo(request.model);
    q.requiredMweight = model.mweight;
    q.safeLevelByClass.assign(nclasses, 100);
    bool placeable = false;
    int best = -1;
    for (int cls = 0; cls < skus.classes(); ++cls) {
        if (!skus.fits(cls, model.mweight))
            continue;
        placeable |= skus.hosts(cls);
        const ChipSku *sku = skus.sku(cls);
        auto &art = q.compiledByClass[static_cast<size_t>(cls)];
        art = sku ? cache.get(request.model, fcfg->options, *sku)
                  : cache.get(request.model, fcfg->options);
        const ArtifactInfo &info =
            artifactInfoOf(request.model, *art, cls);
        q.safeLevelByClass[static_cast<size_t>(cls)] = info.safeLevel;
        if (best < 0 || skus.capacity(cls) > skus.capacity(best)) {
            best = cls;
            q.estServiceUs = info.estServiceUs;
        }
    }
    if (!placeable)
        aim_fatal("model '", request.model, "' (", model.mweight,
                  " Mweight) fits no chip of the fleet");
    q.compiled = q.compiledByClass[static_cast<size_t>(best)];
    return q;
}

} // namespace aim::serve
