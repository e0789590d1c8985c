/**
 * @file
 * Statistical Rtog sampler: the fast path used by the chip-level
 * runtime and by the mapping evaluator.
 *
 * Exact bit-serial simulation of 64 macros over full networks is the
 * slow path; at chip scale AIM's own insight applies: Rtog factors into
 * the weight hamming rate (HR, fixed after mapping) times the fraction
 * of word lines toggling (input-dependent).  The mapping evaluator in
 * the paper does exactly this -- "a 100-step input flip sequence
 * sampled from a normal distribution ... combined with the HR values
 * assigned to each macro" (Section 5.6).
 */

#ifndef AIM_PIM_TOGGLEMODEL_HH
#define AIM_PIM_TOGGLEMODEL_HH

#include <algorithm>

#include "pim/InputStream.hh"
#include "util/Rng.hh"

namespace aim::pim
{

/** Per-cycle word-line toggle fraction statistics of a stream. */
struct ToggleStats
{
    /** Mean fraction of word lines toggling per cycle. */
    double mean = 0.4;
    /** Standard deviation of that fraction. */
    double stddev = 0.1;
    /** Largest per-cycle fraction observed during estimation. */
    double peak = 0.8;
    /**
     * Probability of a burst window (weight reload, operator phase
     * change) where toggling spikes between peak and all lines.
     * These rare spikes set the workload's worst-case IR-drop
     * (paper Figure 3's per-model worst points).
     */
    double burstProb = 0.012;
};

/**
 * Estimate toggle statistics of a stream spec by Monte-Carlo over the
 * real bit-serial toggle rule (cheap: no arithmetic, just bits).
 *
 * @param spec     stream statistics
 * @param rows     word lines per bank
 * @param vectors  number of input vectors to simulate
 * @param seed     RNG seed
 */
ToggleStats estimateToggleStats(const StreamSpec &spec, int rows,
                                int vectors = 200, uint64_t seed = 7);

/**
 * Samples one cycle's Rtog as HR x toggle-fraction.  By Equation 4 the
 * sample never exceeds HR.
 */
class RtogSampler
{
  public:
    /**
     * @param hr     hamming rate of the macro's in-memory data
     * @param stats  stream toggle statistics
     * @param rng    sampling stream
     */
    RtogSampler(double hr, ToggleStats stats, util::Rng rng);

    /**
     * Draw the Rtog of one cycle (clamped to [0, hr]).  Inline: the
     * window engine draws once per hosted task per window.
     */
    double
    sample()
    {
        if (stats.burstProb > 0.0 && rng.bernoulli(stats.burstProb)) {
            const double lo = std::clamp(stats.peak, 0.0, 1.0);
            return hr * rng.uniform(lo, 1.0);
        }
        const double frac =
            std::clamp(rng.normal(stats.mean, stats.stddev), 0.0, 1.0);
        return hr * frac;
    }

    /** Expected cycle Rtog. */
    double mean() const;

    /** HR bound of this sampler. */
    double hrBound() const { return hr; }

  private:
    double hr;
    ToggleStats stats;
    util::Rng rng;
};

} // namespace aim::pim

#endif // AIM_PIM_TOGGLEMODEL_HH
