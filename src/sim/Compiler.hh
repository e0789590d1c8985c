/**
 * @file
 * The compiler stage: splits each operator into macro-sized tiles,
 * computes per-tile HR from the quantized weights, and packs
 * consecutive operators into *rounds* that fit the chip's 64 macros.
 * Each operator instance forms one logical MacroSet (its tiles must
 * run frequency-synchronized); a round is mapped and executed as a
 * unit by the runtime.
 *
 * compileModel works in two phases.  Placement is serial: an
 * operator's tile count (the same count tileOperator makes) alone
 * decides its round and the macros left for the next one.  Tiling
 * then runs each operator on a pool the call creates, with
 * min(operators, hardware concurrency) threads, and the rounds join
 * the tasks in operator order, so the result does not depend on the
 * thread count.
 */

#ifndef AIM_SIM_COMPILER_HH
#define AIM_SIM_COMPILER_HH

#include <vector>

#include "mapping/Task.hh"
#include "quant/Quantizer.hh"
#include "workload/ModelZoo.hh"

namespace aim::sim
{

/** One mapped-and-executed batch of operators. */
struct Round
{
    std::vector<mapping::Task> tasks;
};

/** Compiler tuning. */
struct CompilerConfig
{
    /** Seed for the activation-HR sampling of QKT/SV tiles. */
    uint64_t seed = 404;
};

/**
 * Tile a model's operators into rounds.
 *
 * @param model        the network (all operators, in order)
 * @param weightLayers quantized tensors of the weight-bearing
 *                     operators, in the same order (input-determined
 *                     operators are absent, as produced by
 *                     synthesizeWeights + a quantizer)
 * @param cfg          chip geometry
 * @param ccfg         compiler tuning
 */
std::vector<Round> compileModel(
    const workload::ModelSpec &model,
    const std::vector<quant::QuantizedLayer> &weightLayers,
    const pim::PimConfig &cfg, const CompilerConfig &ccfg = {});

/**
 * Tile one operator into at most @p maxMacros tasks sharing a set id.
 * Exposed for tests and for the Figure-21 operator-mix benches.
 */
std::vector<mapping::Task> tileOperator(
    const workload::LayerSpec &spec,
    const quant::QuantizedLayer *weights, const pim::PimConfig &cfg,
    int setId, int maxMacros, uint64_t seed);

} // namespace aim::sim

#endif // AIM_SIM_COMPILER_HH
