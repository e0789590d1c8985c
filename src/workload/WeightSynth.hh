/**
 * @file
 * Weight synthesis: turns LayerSpecs into FloatLayers with
 * fan-in-scaled Gaussian weights (Kaiming-style initialization
 * statistics, which match the distribution shape of trained conv /
 * linear tensors closely enough that their INT8 quantization lands at
 * the paper's HR ~ 0.5 baseline).
 *
 * Large layers are *sampled*: HR, deviation and the distribution
 * statistics AIM optimizes are all means over weights, so a capped
 * random sample preserves them while keeping QAT tractable offline.
 *
 * Every layer draws from its own stream, forked from the seed by its
 * operator's index, so synthesizeWeights sizes the layers serially
 * and then fills them on a pool it creates per call, with
 * min(layers, hardware concurrency) threads.  The values do not
 * depend on the thread count.
 */

#ifndef AIM_WORKLOAD_WEIGHTSYNTH_HH
#define AIM_WORKLOAD_WEIGHTSYNTH_HH

#include <vector>

#include "quant/QatTrainer.hh"
#include "workload/ModelZoo.hh"

namespace aim::workload
{

/** Controls for the synthesizer. */
struct SynthConfig
{
    /** Element cap per layer (sampled tensors above this). */
    long maxElementsPerLayer = 16384;
    /** RNG seed (per-layer streams are forked from it). */
    uint64_t seed = 2025;
};

/**
 * Synthesize the weight-bearing layers of a model.  Input-determined
 * operators (QkT / Sv) carry no pretrained weights and are skipped;
 * the runtime generates their in-memory data from activations.
 */
std::vector<quant::FloatLayer>
synthesizeWeights(const ModelSpec &model,
                  const SynthConfig &cfg = SynthConfig{});

/**
 * Synthesize the in-memory data of an input-determined operator (the
 * K / V activations of attention) as a quantized tile sample.  These
 * are dense, roughly Gaussian activations whose HR cannot be lowered
 * offline -- the reason IR-Booster must fall back to the 100% safe
 * level on such operators.
 */
quant::QuantizedLayer
synthesizeActivationTile(const LayerSpec &spec,
                         const pim::StreamSpec &stream, uint64_t seed);

} // namespace aim::workload

#endif // AIM_WORKLOAD_WEIGHTSYNTH_HH
