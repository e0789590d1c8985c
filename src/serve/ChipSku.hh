/**
 * @file
 * Heterogeneous chip SKUs for the serving layer.
 *
 * A real PIM fleet is rarely homogeneous: procurement mixes chip
 * generations and bins, and the parts differ in macro count (weight
 * capacity + peak throughput), V-f calibration, and power-delivery
 * network quality.  A ChipSku captures one such part:
 *
 *   - geometry: a full pim::PimConfig (macrosPerGroup x groups),
 *     which determines how many weight elements the chip can hold
 *     resident (capacityMweight()) and its peak MACs/pass
 *   - calibration: a per-SKU power::Calibration (peak TOPS, V-f
 *     grids), so a small bin is not modelled as a derated big chip
 *   - PDN corner: decap/bump-inductance scale factors applied to the
 *     Transient droop backend, modelling parts with better or worse
 *     power delivery (a derated corner droops deeper on di/dt)
 *   - price: a relative cost/hour, so capacity planning
 *     (bench_sku_planning) can trade SLO attainment against fleet
 *     cost
 *
 * FleetConfig carries a SKU table plus a per-chip assignment
 * (FleetConfig::skus / skuOf); an empty table is the homogeneous
 * legacy fleet, bit-identical to pre-SKU behavior.  The dispatch
 * layer uses capacityMweight() for capability-aware placement: a
 * model may only land on a chip whose SKU can hold its weights.
 */

#ifndef AIM_SERVE_CHIPSKU_HH
#define AIM_SERVE_CHIPSKU_HH

#include <string>

#include "aim/Aim.hh"
#include "pim/PimConfig.hh"
#include "power/Calibration.hh"
#include "sim/Runtime.hh"

namespace aim::serve
{

/**
 * Power-delivery-network corner of a SKU: multiplicative scales on
 * the Transient backend's electrical parameters.  The nominal corner
 * (1.0/1.0) leaves the backend untouched; a derated corner (less
 * decap, more bump inductance) deepens first droop and costs boost
 * level.  Only the Transient backend reads these -- Analytic and
 * Mesh model no decap/bump and ignore the corner.
 */
struct PdnCorner
{
    std::string name = "nominal";
    /** Scale on RunConfig::transientDecapNf (must be > 0). */
    double decapScale = 1.0;
    /** Scale on RunConfig::transientBumpPh (must be > 0). */
    double bumpScale = 1.0;
};

/** One chip part number a fleet can be built from. */
struct ChipSku
{
    std::string name = "default";
    /** Chip geometry (macro count drives capacity + throughput). */
    pim::PimConfig pim;
    /** Per-SKU V-f calibration (peak TOPS scales with the bin). */
    power::Calibration cal = power::defaultCalibration();
    /** Power-delivery corner of the part. */
    PdnCorner pdn;
    /**
     * Weight-buffer capacity per macro [Mweight].  With the default
     * 32.0 the stock 64-macro chip holds 2048 Mweight -- enough for
     * Llama3.2-1B (~1230) but not Llama3.1-8B (~7000), which is what
     * forces the 8B gang onto multiple big chips.
     */
    double weightBufMweightPerMacro = 32.0;
    /** Relative price of running this part [cost units per hour];
     * bench_sku_planning sums it across the fleet. */
    double costPerHour = 1.0;

    /** Resident weight capacity of the part [Mweight]: a model fits
     * iff its totalWeights()/1e6 is at most this. */
    double capacityMweight() const
    {
        return pim.macros() * weightBufMweightPerMacro;
    }
};

/** The stock 64-macro part the paper models (capacity 2048 Mweight,
 * unit price).  Serving on an all-big fleet is bit-identical to a
 * SKU-less fleet. */
ChipSku bigSku();

/** A quarter-size bin: 16 macros / 512 Mweight, quarter peak TOPS,
 * 0.35x price.  Hosts the conv zoo and GPT-2 but not Llama3. */
ChipSku smallSku();

/** A double-size part: 128 macros / 4096 Mweight, 2x peak TOPS,
 * 2.2x price, with a generously decapped PDN. */
ChipSku xlSku();

/**
 * Check a SKU for values the models cannot represent.
 *
 * @return empty when valid, else a human-readable description of the
 *         first problem (empty name, non-positive geometry /
 *         capacity / price / corner scales).
 */
std::string validateChipSku(const ChipSku &sku);

/**
 * The sim::RunConfig a (options, SKU) pair implies: runConfigFor()
 * with the SKU's PDN corner applied to the Transient electrical
 * knobs.  The nominal corner returns runConfigFor(opts) verbatim, so
 * backend memoization keys (and legacy bits) are unchanged.
 */
sim::RunConfig runConfigForSku(const AimOptions &opts,
                               const ChipSku &sku);

} // namespace aim::serve

#endif // AIM_SERVE_CHIPSKU_HH
