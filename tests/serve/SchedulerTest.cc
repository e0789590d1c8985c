#include <gtest/gtest.h>

#include <limits>

#include "serve/Scheduler.hh"
#include "shard/ShardedRuntime.hh"
#include "util/Rng.hh"

using namespace aim;
using namespace aim::serve;

namespace
{

QueuedRequest
queued(long id, const std::string &model, double arrival_us,
       double est_service_us, int safe_level)
{
    QueuedRequest q;
    q.request.id = id;
    q.request.model = model;
    q.request.arrivalUs = arrival_us;
    q.estServiceUs = est_service_us;
    q.safeLevelByClass = {safe_level};
    return q;
}

ChipContext
chipOn(const std::string &model, int level)
{
    ChipContext ctx;
    ctx.residentModel = model;
    ctx.safeLevel = level;
    return ctx;
}

} // namespace

TEST(Scheduler, FcfsPicksEarliestArrival)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 30.0, 1.0, 40),
        queued(1, "ResNet18", 10.0, 9.0, 40),
        queued(2, "ViT", 20.0, 5.0, 40),
    };
    const Scheduler s(SchedPolicy::Fcfs);
    EXPECT_EQ(s.pick(queue, chipOn("GPT2", 40)), 1u);
}

TEST(Scheduler, SjfPicksShortestJob)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 10.0, 7.0, 40),
        queued(1, "ResNet18", 20.0, 2.0, 40),
        queued(2, "ViT", 30.0, 5.0, 40),
    };
    const Scheduler s(SchedPolicy::Sjf);
    EXPECT_EQ(s.pick(queue, chipOn("GPT2", 40)), 1u);
}

TEST(Scheduler, SjfBreaksTiesByArrival)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 20.0, 2.0, 40),
        queued(1, "ResNet18", 10.0, 2.0, 40),
    };
    const Scheduler s(SchedPolicy::Sjf);
    EXPECT_EQ(s.pick(queue, chipOn("", 100)), 1u);
}

TEST(Scheduler, IrAwarePrefersResidentModel)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 10.0, 1.0, 100),
        queued(1, "ResNet18", 30.0, 9.0, 40),
        queued(2, "ViT", 20.0, 5.0, 100),
    };
    const Scheduler s(SchedPolicy::IrAware);
    // ResNet18 arrives last and is the longest job, but it is the
    // resident model: no weight reload.
    EXPECT_EQ(s.pick(queue, chipOn("ResNet18", 40)), 1u);
}

TEST(Scheduler, IrAwareFallsBackToLevelProximity)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 10.0, 1.0, 100),
        queued(1, "ViT", 20.0, 5.0, 45),
    };
    const Scheduler s(SchedPolicy::IrAware);
    // Nothing is resident; the chip booster sits at level 40, so the
    // level-45 request avoids the longer retune.
    EXPECT_EQ(s.pick(queue, chipOn("MobileNetV2", 40)), 1u);
}

TEST(Scheduler, IrAwareBreaksTiesByArrival)
{
    const std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 20.0, 1.0, 40),
        queued(1, "GPT2", 10.0, 1.0, 40),
    };
    const Scheduler s(SchedPolicy::IrAware);
    EXPECT_EQ(s.pick(queue, chipOn("GPT2", 40)), 1u);
}

TEST(Scheduler, PicksOnlyWhatTheChipCanHold)
{
    std::vector<QueuedRequest> queue = {
        queued(0, "GPT2", 10.0, 9.0, 40),
        queued(1, "ResNet18", 20.0, 2.0, 40),
    };
    queue[0].requiredMweight = 86.0;
    queue[1].requiredMweight = 11.0;
    ChipContext tiny = chipOn("", 40);
    tiny.capacityMweight = 32.0;
    for (const auto policy : allPolicies())
        EXPECT_EQ(Scheduler(policy).pick(queue, tiny), 1u)
            << policyName(policy);
    // Nothing fits: no candidate at all.
    queue[1].requiredMweight = 40.0;
    EXPECT_EQ(Scheduler(SchedPolicy::Fcfs).pick(queue, tiny),
              queue.size());
    // Gangs route their own members: eligible on any chip.
    queue[0].sharded = std::make_shared<const shard::ShardedModel>();
    EXPECT_EQ(Scheduler(SchedPolicy::Fcfs).pick(queue, tiny), 0u);
    EXPECT_EQ(Scheduler(SchedPolicy::Fcfs).pick({}, tiny), 0u);
}

TEST(Scheduler, AllPoliciesCoverTheEnum)
{
    const auto policies = allPolicies();
    ASSERT_EQ(policies.size(), 3u);
    EXPECT_STREQ(policyName(policies[0]), "fcfs");
    EXPECT_STREQ(policyName(policies[1]), "sjf");
    EXPECT_STREQ(policyName(policies[2]), "ir-aware");
}

TEST(Scheduler, ArtifactSafeLevelTracksWorstTask)
{
    const power::VfTable table(power::defaultCalibration());
    CompiledModel cm;
    cm.hrMax = 0.22;

    sim::Round round;
    mapping::Task task;
    task.hr = 0.38;
    round.tasks.push_back(task);
    cm.rounds.push_back(round);
    EXPECT_EQ(artifactSafeLevel(cm, table),
              table.safeLevelFor(0.38));

    // An input-determined attention tile forces the DVFS level.
    mapping::Task qkt;
    qkt.hr = 0.3;
    qkt.inputDetermined = true;
    cm.rounds.back().tasks.push_back(qkt);
    EXPECT_EQ(artifactSafeLevel(cm, table), 100);
}

namespace
{

/** Per-model rank keys of the randomized pick-equivalence test. */
struct ModelKeys
{
    std::string name;
    double estServiceUs;
    std::vector<int> safeLevelByClass;
    double requiredMweight;
    bool gang;
};

} // namespace

TEST(Scheduler, HeadPickMatchesTheFlatPick)
{
    // A random interleaving of admissions and dispatches: every
    // dispatch picks through both the flat reference (over the queue
    // in admission order) and the per-model queue heads, which must
    // name the same request; that request then leaves both.
    util::Rng rng(2024);
    const auto gang = std::make_shared<const shard::ShardedModel>();
    const int levels[] = {40, 45, 50, 60, 100};
    const double mweights[] = {11.0, 32.0, 86.0};
    long picks = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const Scheduler sched(allPolicies()[static_cast<size_t>(
            rng.uniformInt(0, 2))]);
        const int classes = static_cast<int>(rng.uniformInt(1, 3));
        std::vector<ModelKeys> models(
            static_cast<size_t>(rng.uniformInt(1, 5)));
        for (size_t m = 0; m < models.size(); ++m) {
            auto &k = models[m];
            k.name = "model" + std::to_string(m);
            // Few distinct values, so ranks tie across models.
            k.estServiceUs = static_cast<double>(rng.uniformInt(1, 3));
            for (int c = 0; c < classes; ++c)
                k.safeLevelByClass.push_back(
                    levels[rng.uniformInt(0, 4)]);
            k.requiredMweight = mweights[rng.uniformInt(0, 2)];
            k.gang = rng.bernoulli(0.15);
        }
        const auto some_model = [&]() -> const ModelKeys & {
            return models[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(models.size()) - 1))];
        };
        std::vector<QueuedRequest> flat;
        ModelQueues heads;
        double arrival = 0.0;
        long next_id = 0;
        for (int op = 0; op < 120; ++op) {
            if (rng.bernoulli(0.55)) {
                const ModelKeys &k = some_model();
                // Non-decreasing arrivals, often tied; ids need not
                // follow admission order.
                if (rng.bernoulli(0.6))
                    arrival += rng.uniform(0.0, 5.0);
                QueuedRequest q = queued(next_id++ * 7919 % 1000, k.name,
                                         arrival, k.estServiceUs, 0);
                q.safeLevelByClass = k.safeLevelByClass;
                q.requiredMweight = k.requiredMweight;
                if (k.gang)
                    q.sharded = gang;
                flat.push_back(q);
                heads.push(std::move(q));
                continue;
            }
            ChipContext ctx;
            ctx.residentModel = rng.bernoulli(0.2) ? "" : some_model().name;
            ctx.safeLevel = levels[rng.uniformInt(0, 4)];
            ctx.skuClass = static_cast<int>(rng.uniformInt(0, classes - 1));
            ctx.capacityMweight =
                rng.bernoulli(0.3)
                    ? std::numeric_limits<double>::infinity()
                    : mweights[rng.uniformInt(0, 2)];
            const size_t want = sched.pick(flat, ctx);
            const int m = sched.pickHead(heads, ctx);
            ASSERT_EQ(heads.size(), static_cast<long>(flat.size()));
            if (want == flat.size()) {
                ASSERT_EQ(m, -1) << policyName(sched.policy());
                continue;
            }
            ASSERT_GE(m, 0) << policyName(sched.policy());
            ASSERT_EQ(heads.at(m, 0).request.id, flat[want].request.id)
                << policyName(sched.policy()) << ", trial " << trial;
            EXPECT_EQ(heads.pop(m).request.id, flat[want].request.id);
            flat.erase(flat.begin() + static_cast<std::ptrdiff_t>(want));
            ++picks;
        }
    }
    // The interleaving exercised the pick, not just the admissions.
    EXPECT_GT(picks, 5000);
}
