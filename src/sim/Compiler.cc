#include "sim/Compiler.hh"

#include <algorithm>
#include <cmath>

#include "exec/ExecPool.hh"
#include "quant/Hamming.hh"
#include "util/Logging.hh"
#include "workload/WeightSynth.hh"

namespace aim::sim
{

namespace
{

/** HR of contiguous chunk @p i of @p n over a value array. */
double
chunkHr(const quant::QuantizedLayer &layer, int i, int n)
{
    const size_t total = layer.values.size();
    const size_t lo = total * i / n;
    const size_t hi = total * (i + 1) / n;
    if (lo >= hi)
        return layer.hr();
    return quant::hammingRate(
        std::span<const int32_t>(layer.values).subspan(lo, hi - lo),
        layer.bits);
}

/** Tasks tileOperator makes: its natural tile count, capped. */
int
tileCount(const workload::LayerSpec &spec, const pim::PimConfig &cfg,
          int max_macros)
{
    const long col_tiles =
        (spec.reduction + cfg.rows - 1) / cfg.rows;
    const long row_tiles =
        (spec.outChannels + cfg.banks - 1) / cfg.banks;
    const long natural = std::max(col_tiles * row_tiles, 1L);
    return static_cast<int>(std::min<long>(natural, max_macros));
}

} // namespace

std::vector<mapping::Task>
tileOperator(const workload::LayerSpec &spec,
             const quant::QuantizedLayer *weights,
             const pim::PimConfig &cfg, int set_id, int max_macros,
             uint64_t seed)
{
    aim_assert(max_macros >= 1, "need at least one macro");

    // Natural tile count from the full operator dimensions.
    const int macros = tileCount(spec, cfg, max_macros);

    // Per-tile HR: from weight chunks, or from synthesized activation
    // data for input-determined operators (unknown to the compiler;
    // the value only informs the runtime's activity sampling -- the
    // booster still treats these as 100% safe level).
    std::vector<mapping::Task> tasks;
    tasks.reserve(macros);
    quant::QuantizedLayer act_tile;
    if (!weights) {
        act_tile = workload::synthesizeActivationTile(
            spec,
            [] {
                pim::StreamSpec s;
                s.sigmaLsb = 40.0;
                return s;
            }(),
            seed);
    }
    for (int i = 0; i < macros; ++i) {
        mapping::Task t;
        t.layerName = spec.name;
        t.type = spec.type;
        t.setId = set_id;
        t.inputDetermined = workload::isInputDetermined(spec.type);
        t.macs = spec.macs() / macros;
        if (weights) {
            t.hr = chunkHr(*weights, i, macros);
        } else {
            const int chunks = std::max(macros / 4, 1);
            t.hr = chunkHr(act_tile, i % chunks, chunks);
        }
        tasks.push_back(std::move(t));
    }
    return tasks;
}

std::vector<Round>
compileModel(const workload::ModelSpec &model,
             const std::vector<quant::QuantizedLayer> &weightLayers,
             const pim::PimConfig &cfg, const CompilerConfig &ccfg)
{
    // Placement, serially: operator i is Set i, lands in round[i]
    // and may take room[i] macros; its tile count alone decides what
    // the next operator finds left.
    const size_t ops = model.layers.size();
    std::vector<const quant::QuantizedLayer *> weights(ops, nullptr);
    std::vector<int> room(ops);
    std::vector<size_t> round(ops);
    size_t r = 0;
    int used = 0;
    size_t w = 0;
    for (size_t i = 0; i < ops; ++i) {
        const workload::LayerSpec &spec = model.layers[i];
        if (!workload::isInputDetermined(spec.type)) {
            aim_assert(w < weightLayers.size(),
                       "weight layer list too short at ", spec.name);
            weights[i] = &weightLayers[w++];
        }
        if (cfg.macros() - used < 1) {
            ++r;
            used = 0;
        }
        room[i] = cfg.macros() - used;
        round[i] = r;
        used += tileCount(spec, cfg, room[i]);
    }
    aim_assert(w == weightLayers.size(),
               "unused weight layers after compile");

    // Tiling, one operator per item of a per-call pool: the chunk HRs
    // and activation tiles are pure functions of the operator.
    std::vector<std::vector<mapping::Task>> tasks(ops);
    const long n = static_cast<long>(ops);
    exec::ExecPool pool(exec::ExecPool::threadsFor(n));
    pool.parallelFor(n, [&](long i) {
        const int set_id = static_cast<int>(i);
        tasks[i] = tileOperator(model.layers[i], weights[i], cfg,
                                set_id, room[i],
                                ccfg.seed + set_id + 1);
    });

    // Join in operator order.
    std::vector<Round> rounds(ops > 0 ? r + 1 : 0);
    for (size_t i = 0; i < ops; ++i) {
        auto &dst = rounds[round[i]].tasks;
        dst.insert(dst.end(), std::make_move_iterator(tasks[i].begin()),
                   std::make_move_iterator(tasks[i].end()));
    }
    return rounds;
}

} // namespace aim::sim
