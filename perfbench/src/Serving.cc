#include "Serving.hh"

#include "Replay.hh"
#include "exec/ExecPool.hh"
#include "isa/Engine.hh"
#include "shard/ShardedRuntime.hh"
#include "stream/TraceSource.hh"
#include "util/Rng.hh"

namespace perfbench
{

using namespace aim;

stream::StreamConfig
heteroConfig(uint64_t seed, long requests, int threads)
{
    stream::StreamConfig s;
    s.fleet.chips = 4;
    s.fleet.threads = threads;
    s.fleet.seed = seed ^ 0x5eedULL;
    s.fleet.skus = {serve::bigSku(), serve::smallSku()};
    s.fleet.skuOf = {0, 0, 1, 1};
    s.fleet.options.useLhr = false;
    s.fleet.options.workScale = 0.05;
    s.fleet.options.mapper = mapping::MapperKind::Sequential;
    s.fleet.options.irBackend = power::IrBackendKind::Transient;
    s.fleet.options.useIsa = true;
    s.fleet.options.isaSchedule = true;
    serve::GangSpec gang;
    gang.model = "ResNet18";
    gang.partition.chips = 2;
    gang.microBatches = 2;
    s.fleet.gangs = {gang};
    s.trace.arrivals = serve::ArrivalKind::Diurnal;
    s.trace.meanRatePerSec = 2'500.0;
    s.trace.requests = requests;
    s.trace.diurnalPeriodUs =
        static_cast<double>(requests) / 2'500.0 * 1e6;
    // A GPT2 request costs ~10x the others, so a short stream's host
    // time follows its GPT2 count.  The arrival stream is therefore
    // the fixed bench_sku_planning one; the seed drives the
    // per-request chip noise (fleet.seed).
    s.trace.seed = 1209;
    s.trace.mix = {{"ResNet18", 1.0, 4000.0},
                   {"GPT2", 1.0, 4000.0},
                   {"MobileNetV2", 1.0, 4000.0}};
    s.serviceSamples = 0;
    s.admission.maxQueueDepth = 256;
    return s;
}

stream::StreamConfig
overloadConfig(uint64_t seed, long requests, int threads)
{
    stream::StreamConfig s;
    s.fleet.chips = 2;
    s.fleet.threads = threads;
    s.fleet.seed = seed ^ 0x5eedULL;
    s.fleet.policy = serve::SchedPolicy::Fcfs;
    s.fleet.options.useLhr = false;
    s.fleet.options.workScale = 0.05;
    s.fleet.options.mapper = mapping::MapperKind::Sequential;
    s.trace.arrivals = serve::ArrivalKind::Poisson;
    s.trace.meanRatePerSec = 60'000.0;
    s.trace.requests = requests;
    s.trace.seed = seed;
    s.trace.mix = {{"ResNet18", 1.0, 4000.0},
                   {"MobileNetV2", 1.0, 4000.0}};
    s.serviceSamples = 4;
    s.histogramLatency = true;
    return s;
}

namespace
{

serve::FleetConfig
resolved(serve::FleetConfig fleet)
{
    if (fleet.options.isaLoadUsPerMword < 0.0)
        fleet.options.isaLoadUsPerMword = fleet.reloadUsPerMweight;
    if (fleet.options.isaRetuneUs < 0.0)
        fleet.options.isaRetuneUs = fleet.retuneUsPerStep;
    return fleet;
}

} // namespace

ServingSetup::ServingSetup(const stream::StreamConfig &scfg)
    : cfg(), cal(power::defaultCalibration()), scfg(scfg),
      fleet(resolved(scfg.fleet)), pipe(cfg, cal), cache(pipe),
      meta(fleet, cal)
{
    const auto &skus = meta.fleetSkus();
    for (int cls = 0; cls < skus.classes(); ++cls)
        executors.push_back(
            skus.heterogeneous()
                ? std::make_unique<const serve::RequestExecutor>(
                      *skus.sku(cls), fleet.options)
                : std::make_unique<const serve::RequestExecutor>(
                      cfg, cal, fleet.options));
    for (const auto &mix : scfg.trace.mix)
        meta.annotate({0, mix.model, 0.0, mix.sloUs}, cache);
    compileS = cache.compileMs() / 1e3;
}

uint64_t
ServingSetup::requestSeed(long id) const
{
    const uint64_t s = util::Rng(fleet.seed)
                           .fork(static_cast<uint64_t>(id) + 1)
                           .next();
    return s != 0 ? s : 1;
}

int
ServingSetup::classFor(const serve::QueuedRequest &q) const
{
    if (q.compiledByClass.empty())
        return 0;
    std::vector<int> fitting;
    for (size_t c = 0; c < q.compiledByClass.size(); ++c)
        if (q.compiledByClass[c])
            fitting.push_back(static_cast<int>(c));
    return fitting[static_cast<size_t>(q.request.id) % fitting.size()];
}

pim::PimConfig
ServingSetup::pimOf(int cls) const
{
    const auto *sku = meta.fleetSkus().sku(cls);
    return sku ? sku->pim : cfg;
}

power::Calibration
ServingSetup::calOf(int cls) const
{
    const auto *sku = meta.fleetSkus().sku(cls);
    return sku ? sku->cal : cal;
}

sim::RunConfig
ServingSetup::runConfigOf(int cls, uint64_t seed) const
{
    const auto *sku = meta.fleetSkus().sku(cls);
    sim::RunConfig rcfg = sku ? serve::runConfigForSku(fleet.options, *sku)
                              : runConfigFor(fleet.options);
    rcfg.seed = seed;
    return rcfg;
}

sim::RunReport
ServingSetup::execute(const serve::QueuedRequest &q, uint64_t seed) const
{
    if (q.sharded) {
        shard::ShardRuntimeConfig sc;
        sc.microBatches = meta.gangSpec(q.request.model)->microBatches;
        sc.threads = 1;
        sc.interconnect = fleet.interconnect;
        const shard::ShardedRuntime rt(cfg, cal, sc);
        const auto &skus = meta.fleetSkus();
        if (!skus.heterogeneous())
            return rt.execute(*q.sharded, seed).merged;
        std::vector<shard::StageEnv> envs;
        const auto &slot_classes = meta.gangClasses(q.sharded.get());
        size_t slot = 0;
        for (const auto &stage : q.sharded->plan.stages) {
            const serve::ChipSku &sku = *skus.sku(slot_classes[slot]);
            envs.push_back({sku.pim, sku.cal,
                            serve::runConfigForSku(fleet.options, sku)});
            slot += static_cast<size_t>(stage.ways);
        }
        return rt.execute(*q.sharded, seed, &envs).merged;
    }
    const int cls = classFor(q);
    const CompiledModel &compiled =
        q.compiledByClass.empty()
            ? *q.compiled
            : *q.compiledByClass[static_cast<size_t>(cls)];
    return executors[static_cast<size_t>(cls)]->run(compiled, seed).run;
}

stream::StreamReport
serveOnce(ServingSetup &setup, long horizon, uint64_t fleet_seed)
{
    stream::StreamConfig scfg = setup.scfg;
    scfg.maxRequests = horizon;
    if (fleet_seed != 0)
        scfg.fleet.seed = fleet_seed;
    stream::EventLoop loop(setup.cfg, setup.cal, scfg);
    return loop.run(setup.cache);
}

double
serveReplay(ServingSetup &setup, long n, Tracer &t, Result &res,
            long *windows, long *replayed)
{
    stream::TraceSource source(setup.scfg.trace);
    double untraced_us = 0.0;
    long single = 0;
    for (long i = 0; i < n; ++i) {
        const serve::Request r = source.next();
        const uint64_t seed = setup.requestSeed(r.id);
        serve::QueuedRequest q;
        {
            SpanScope s(t, "serve.annotate", r.id);
            q = setup.meta.annotate(r, setup.cache);
        }
        if (q.sharded) {
            SpanScope s(t, "shard.exec", r.id);
            setup.execute(q, seed);
            continue;
        }
        sim::RunReport served;
        {
            SpanScope s(t, "serve.exec", r.id);
            served = setup.execute(q, seed);
        }
        const int cls = setup.classFor(q);
        const CompiledModel &compiled =
            q.compiledByClass.empty()
                ? *q.compiled
                : *q.compiledByClass[static_cast<size_t>(cls)];
        const auto pim = setup.pimOf(cls);
        const auto cal = setup.calOf(cls);
        const auto rcfg = setup.runConfigOf(cls, seed);

        sim::RunReport ref, rep;
        const auto untraced = [&] {
            const auto tu = Clock::now();
            const sim::Runtime runtime(pim, cal, rcfg);
            {
                SpanScope s(t, "sim.runtime", r.id);
                ref = runtime.run(compiled.rounds, compiled.stream, seed);
            }
            untraced_us += secondsSince(tu) * 1e6;
        };
        const auto traced = [&] {
            rep = replayExecute(pim, cal, rcfg, compiled, t, r.id, windows);
        };
        // Alternate the order so neither side always runs warm.
        if (single % 2 == 0) {
            untraced();
            traced();
        } else {
            traced();
            untraced();
        }
        ++single;
        res.check("traced execute replay is bit-identical to the "
                  "serving executor",
                  sameReport(rep, served) && sameReport(rep, ref));
        if (compiled.program && single <= 3) {
            const isa::Engine engine(pim, cal, rcfg);
            SpanScope s(t, "isa.engine", r.id);
            res.check("isa::Engine::run matches the replay",
                      sameReport(engine
                                     .run(*compiled.program,
                                          compiled.stream, seed, nullptr,
                                          nullptr,
                                          compiled.schedule.get())
                                     .run,
                                 rep));
        }
    }
    *replayed = single;
    return untraced_us;
}

void
execSpeedup(ServingSetup &setup, long n, Result &res,
            const std::string &note)
{
    stream::TraceSource source(setup.scfg.trace);
    std::vector<serve::QueuedRequest> batch;
    for (long i = 0; i < n; ++i)
        batch.push_back(setup.meta.annotate(source.next(), setup.cache));
    // Three 1-thread / 2-thread pairs in alternating order; the
    // figure is the median ratio.
    std::vector<double> ratios;
    bool same = true;
    for (int pair = 0; pair < 3; ++pair) {
        double wall[2] = {0.0, 0.0};
        std::vector<sim::RunReport> out[2];
        for (int j = 0; j < 2; ++j) {
            const int k = pair % 2 == 0 ? j : 1 - j;
            out[k].resize(batch.size());
            exec::ExecPool pool(k + 1);
            const auto t0 = Clock::now();
            pool.parallelFor(static_cast<long>(batch.size()), [&](long i) {
                const auto &q = batch[static_cast<size_t>(i)];
                out[k][static_cast<size_t>(i)] =
                    setup.execute(q, setup.requestSeed(q.request.id));
            });
            wall[k] = secondsSince(t0);
        }
        for (size_t i = 0; i < batch.size(); ++i)
            same &= sameReport(out[0][i], out[1][i]);
        ratios.push_back(wall[0] / wall[1]);
    }
    res.check("executor batch is bit-identical at 1 and 2 threads", same);
    res.set("exec.speedup_2t", median(ratios), "ratio", n, note);
}

void
probeDispatch(ServingSetup &setup, Tracer &t, Result &res)
{
    constexpr long kDeep = 16384;
    constexpr long kShallow = 1024;
    {
        stream::TraceSource source(setup.scfg.trace);
        const auto t0 = Clock::now();
        double sink = 0.0;
        for (long i = 0; i < kDeep; ++i)
            sink += source.next().arrivalUs;
        t.aggregate("stream.trace_next", secondsSince(t0) * 1e6, kDeep);
        res.check("trace arrivals are positive", sink > 0.0);
    }
    std::vector<serve::QueuedRequest> queue;
    queue.reserve(kDeep);
    {
        stream::TraceSource source(setup.scfg.trace);
        std::vector<serve::Request> reqs;
        for (long i = 0; i < kDeep; ++i)
            reqs.push_back(source.next());
        const auto t0 = Clock::now();
        for (const auto &r : reqs)
            queue.push_back(setup.meta.annotate(r, setup.cache));
        t.aggregate("serve.annotate", secondsSince(t0) * 1e6, kDeep);
    }
    const serve::Scheduler fcfs(serve::SchedPolicy::Fcfs);
    serve::ChipContext ctx;
    const std::vector<serve::QueuedRequest> shallow(
        queue.begin(), queue.begin() + kShallow);
    bool earliest = true;
    for (int i = 0; i < 64; ++i) {
        size_t a = 0;
        size_t b = 0;
        {
            SpanScope s(t, "serve.pick.d1k");
            a = fcfs.pick(shallow, ctx);
        }
        {
            SpanScope s(t, "serve.pick.d16k");
            b = fcfs.pick(queue, ctx);
        }
        earliest &= a == 0 && b == 0;
    }
    res.check("FCFS picks the earliest arrival", earliest);
    {
        serve::ChipSlot chip;
        const auto &models = setup.scfg.trace.mix;
        constexpr long kCalls = 200'000;
        double total = 0.0;
        const auto t0 = Clock::now();
        for (long i = 0; i < kCalls; ++i) {
            const auto &model =
                models[static_cast<size_t>(i) % models.size()].model;
            const auto cost = serve::dispatchCost(
                chip, model, 100 - 5 * static_cast<int>(i % 8), 40.0,
                true, 5.0, 0.5);
            total += cost.reloadUs + cost.retuneUs;
            chip.resident = model;
        }
        t.aggregate("serve.dispatch_cost", secondsSince(t0) * 1e6,
                    kCalls);
        res.check("dispatch cost model charges reloads", total > 0.0);
    }
    {
        stream::LatencyHistogram hist;
        util::Rng rng(7);
        std::vector<double> lat(4096);
        for (auto &l : lat)
            l = 50.0 + 5000.0 * rng.uniform();
        constexpr long kRecords = 1'000'000;
        const auto t0 = Clock::now();
        for (long i = 0; i < kRecords; ++i)
            hist.record(lat[static_cast<size_t>(i) & 4095]);
        t.aggregate("stream.hist_record", secondsSince(t0) * 1e6,
                    kRecords);
        res.check("histogram counts every record",
                  hist.count() == kRecords);
    }
}

void
costGrowth(ServingSetup &setup, long horizon, Result &res,
           const std::string &note)
{
    const long quarter = std::max<long>(horizon / 4, 1);
    double us_per_req[2] = {0.0, 0.0};
    const long sizes[2] = {quarter, horizon};
    for (int k = 0; k < 2; ++k) {
        const auto t0 = Clock::now();
        const auto rep = serveOnce(setup, sizes[k]);
        us_per_req[k] = secondsSince(t0) * 1e6 /
                        static_cast<double>(sizes[k]);
        res.check("cost-growth runs drain every request",
                  rep.requests == sizes[k]);
    }
    res.set("stream.cost_growth", us_per_req[1] / us_per_req[0], "ratio",
            2, note);
}

} // namespace perfbench
