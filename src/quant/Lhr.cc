#include "quant/Lhr.hh"

#include <cmath>

#include "quant/Hamming.hh"
#include "util/BitOps.hh"
#include "util/Logging.hh"

namespace aim::quant
{

HrInterp
interpolatedHr(double x, int q)
{
    const std::span<const double> hr = hrTable(q);
    const double lo = static_cast<double>(util::intMin(q));
    const double hi = static_cast<double>(util::intMax(q));

    HrInterp out;
    if (x <= lo) {
        out.value = hr.front();
        out.slope = 0.0;
        return out;
    }
    if (x >= hi) {
        out.value = hr.back();
        out.slope = 0.0;
        return out;
    }

    const double low = std::floor(x);
    const auto at = static_cast<size_t>(low - lo);
    const double hr_low = hr[at];
    if (low == x) {
        // Exactly on an integer: value is exact, segment slope is
        // undefined; report 0 so a converged weight stops moving.
        out.value = hr_low;
        out.slope = 0.0;
        return out;
    }
    const double hr_high = hr[at + 1];
    const double p = x - low;
    out.value = (1.0 - p) * hr_low + p * hr_high;
    out.slope = hr_high - hr_low;
    return out;
}

double
layerInterpolatedHr(std::span<const float> w, double scale, int q)
{
    aim_assert(scale > 0.0, "non-positive scale");
    if (w.empty())
        return 0.0;
    double acc = 0.0;
    for (float x : w)
        acc += interpolatedHr(static_cast<double>(x) / scale, q).value;
    return acc / static_cast<double>(w.size());
}

double
lhrLoss(std::span<const double> layerHrs)
{
    double acc = 0.0;
    for (double hr : layerHrs)
        acc += hr * hr;
    return acc;
}

} // namespace aim::quant
