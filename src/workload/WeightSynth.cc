#include "workload/WeightSynth.hh"

#include <algorithm>
#include <cmath>

#include "exec/ExecPool.hh"
#include "util/Logging.hh"
#include "util/Rng.hh"

namespace aim::workload
{

std::vector<quant::FloatLayer>
synthesizeWeights(const ModelSpec &model, const SynthConfig &cfg)
{
    // Shapes first, serially.  A layer's stream is forked from the
    // root by its operator's 1-based index in model.layers (its tag).
    std::vector<quant::FloatLayer> out;
    std::vector<uint64_t> tags;
    uint64_t tag = 0;
    for (const auto &spec : model.layers) {
        ++tag;
        if (isInputDetermined(spec.type))
            continue;

        quant::FloatLayer layer;
        layer.name = spec.name;
        layer.sensitivity = spec.sensitivity;

        // Sample down huge tensors while keeping the GEMM aspect
        // ratio roughly intact for tiling.
        long rows = spec.outChannels;
        long cols = spec.reduction;
        const long count = rows * cols;
        if (count > cfg.maxElementsPerLayer) {
            const double shrink = std::sqrt(
                static_cast<double>(count) / cfg.maxElementsPerLayer);
            rows = std::max<long>(1, std::lround(rows / shrink));
            cols = std::max<long>(1, std::lround(cols / shrink));
        }
        layer.rows = static_cast<int>(rows);
        layer.cols = static_cast<int>(cols);
        out.push_back(std::move(layer));
        tags.push_back(tag);
    }

    // Then the values, one layer per item of a per-call pool; each
    // item draws only from its own stream and writes only its layer.
    const util::Rng root(cfg.seed);
    const long n = static_cast<long>(out.size());
    exec::ExecPool pool(exec::ExecPool::threadsFor(n));
    pool.parallelFor(n, [&](long i) {
        const LayerSpec &spec = model.layers[tags[i] - 1];
        quant::FloatLayer &layer = out[i];
        // Kaiming-style: std = sigmaScale * sqrt(2 / fan_in).
        const double sigma =
            spec.sigmaScale *
            std::sqrt(2.0 / std::max(spec.reduction, 1));
        util::Rng rng = root.fork(tags[i]);
        layer.weights.resize(static_cast<size_t>(layer.rows) *
                             static_cast<size_t>(layer.cols));
        for (auto &w : layer.weights)
            w = static_cast<float>(rng.normal(0.0, sigma));
        layer.pretrained = layer.weights;
    });
    return out;
}

quant::QuantizedLayer
synthesizeActivationTile(const LayerSpec &spec,
                         const pim::StreamSpec &stream, uint64_t seed)
{
    aim_assert(isInputDetermined(spec.type),
               "activation tile requested for weight operator ",
               spec.name);
    pim::InputStreamGen gen(stream, util::Rng(seed));

    quant::QuantizedLayer tile;
    tile.name = spec.name;
    tile.bits = stream.bits;
    tile.scale = 1.0;
    tile.rows = std::min(spec.outChannels, 128);
    tile.cols = std::min(spec.reduction, 128);
    const auto vals =
        gen.next(tile.rows * tile.cols);
    tile.values.assign(vals.begin(), vals.end());
    return tile;
}

} // namespace aim::workload
