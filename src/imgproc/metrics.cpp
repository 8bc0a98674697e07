#include "imgproc/metrics.hpp"

#include "imgproc/image_ops.hpp"

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

double ssim(const Imagef& a_in, const Imagef& b_in)
{
    util::expects(a_in.width() == b_in.width() && a_in.height() == b_in.height(),
                  "ssim: shape mismatch");
    const Imagef a = to_gray(a_in);
    const Imagef b = to_gray(b_in);

    constexpr int window = 8;
    constexpr double c1 = (0.01 * 255.0) * (0.01 * 255.0);
    constexpr double c2 = (0.03 * 255.0) * (0.03 * 255.0);

    double total = 0.0;
    std::size_t windows = 0;
    for (int y0 = 0; y0 + window <= a.height(); y0 += window) {
        for (int x0 = 0; x0 + window <= a.width(); x0 += window) {
            double mean_a = 0.0;
            double mean_b = 0.0;
            for (int y = y0; y < y0 + window; ++y) {
                for (int x = x0; x < x0 + window; ++x) {
                    mean_a += a(x, y);
                    mean_b += b(x, y);
                }
            }
            constexpr double n = window * window;
            mean_a /= n;
            mean_b /= n;
            double var_a = 0.0;
            double var_b = 0.0;
            double cov = 0.0;
            for (int y = y0; y < y0 + window; ++y) {
                for (int x = x0; x < x0 + window; ++x) {
                    const double da = a(x, y) - mean_a;
                    const double db = b(x, y) - mean_b;
                    var_a += da * da;
                    var_b += db * db;
                    cov += da * db;
                }
            }
            var_a /= n - 1;
            var_b /= n - 1;
            cov /= n - 1;
            const double numerator = (2.0 * mean_a * mean_b + c1) * (2.0 * cov + c2);
            const double denominator = (mean_a * mean_a + mean_b * mean_b + c1) * (var_a + var_b + c2);
            total += numerator / denominator;
            ++windows;
        }
    }
    util::ensures(windows > 0, "ssim: image smaller than one window");
    return total / static_cast<double>(windows);
}

} // namespace inframe::img
