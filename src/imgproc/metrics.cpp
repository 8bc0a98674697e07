#include "imgproc/metrics.hpp"

#include <cmath>
#include <limits>

namespace inframe::img {

double mae(const Imagef& a, const Imagef& b)
{
    util::expects(a.same_shape(b), "mae: shape mismatch");
    double sum = 0.0;
    const auto va = a.values();
    const auto vb = b.values();
    for (std::size_t i = 0; i < va.size(); ++i) sum += std::fabs(va[i] - vb[i]);
    return sum / static_cast<double>(va.size());
}

double mse(const Imagef& a, const Imagef& b)
{
    util::expects(a.same_shape(b), "mse: shape mismatch");
    double sum = 0.0;
    const auto va = a.values();
    const auto vb = b.values();
    for (std::size_t i = 0; i < va.size(); ++i) {
        const double d = static_cast<double>(va[i]) - vb[i];
        sum += d * d;
    }
    return sum / static_cast<double>(va.size());
}

double psnr(const Imagef& a, const Imagef& b)
{
    const double error = mse(a, b);
    if (error <= 0.0) return std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(255.0 * 255.0 / error);
}

} // namespace inframe::img
