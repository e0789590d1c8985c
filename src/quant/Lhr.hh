/**
 * @file
 * LHR — the Lower Hamming Rate regularizer (paper Section 5.3).
 *
 * HR is an integer metric and not differentiable, so Equation 5
 * approximates the HR of a floating-point weight w by linear
 * interpolation between the HR values of its two nearest integers
 * (after division by the quantization scale).  The slope of that
 * segment provides the gradient used during backpropagation; descending
 * it drives weights toward local minima of the hamming function such as
 * -8, 0 and 8 (paper Figure 7).
 *
 * Equation 6 defines the network loss term: the sum over layers of the
 * squared per-layer average HR, which preferentially penalizes the
 * layers with the highest HR.  Its per-weight gradient, in scaled
 * (LSB) units, is applied by QatTrainer::trainLayer.
 */

#ifndef AIM_QUANT_LHR_HH
#define AIM_QUANT_LHR_HH

#include <span>

namespace aim::quant
{

/** Interpolated HR of one scaled weight and its derivative. */
struct HrInterp
{
    /** HR value interpolated between the two neighbouring integers. */
    double value = 0.0;
    /** d(HR)/dx where x = w / s_w (slope of the active segment). */
    double slope = 0.0;
};

/**
 * Evaluate Equation 5 at x = w / s_w.
 *
 * Out-of-range x is clamped to the representable integer range, where
 * the slope is reported as 0 (the weight will be saturated anyway).
 *
 * @param x scaled weight w / s_w
 * @param q quantization bit width
 */
HrInterp interpolatedHr(double x, int q);

/**
 * Per-layer average interpolated HR of scaled float weights.
 *
 * @param w      float weights
 * @param scale  quantization scale s_w
 * @param q      bit width
 */
double layerInterpolatedHr(std::span<const float> w, double scale, int q);

/**
 * Equation 6 regularization loss: sum over layers of HR_layer^2.
 *
 * @param layerHrs per-layer average HR values
 */
double lhrLoss(std::span<const double> layerHrs);

} // namespace aim::quant

#endif // AIM_QUANT_LHR_HH
