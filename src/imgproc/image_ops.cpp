#include "imgproc/image_ops.hpp"

#include "imgproc/pool.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::img {

namespace {

// Flat values per parallel chunk for elementwise ops. Each element is
// computed independently, so any partition is bit-identical; the grain just
// keeps chunk dispatch overhead negligible.
constexpr std::int64_t value_grain = 1 << 15;

} // namespace

Image8 to_u8(const Imagef& src)
{
    Image8 out(src.width(), src.height(), src.channels());
    const auto in = src.values();
    auto dst = out.values();
    util::parallel_for(0, static_cast<std::int64_t>(in.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                               const auto s = static_cast<std::size_t>(i);
                               // Saturate before rounding: identical to
                               // clamp(lround(v), 0, 255) for every finite v
                               // (lround is monotonic) and it keeps lround's
                               // argument in range.
                               const float v = std::min(std::max(in[s], 0.0f), 255.0f);
                               dst[s] = static_cast<std::uint8_t>(std::lround(v));
                           }
                       });
    return out;
}

Imagef to_float(const Image8& src)
{
    Imagef out = Frame_pool::instance().acquire(src.width(), src.height(), src.channels());
    const auto in = src.values();
    auto dst = out.values();
    util::parallel_for(0, static_cast<std::int64_t>(in.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                               const auto s = static_cast<std::size_t>(i);
                               dst[s] = static_cast<float>(in[s]);
                           }
                       });
    return out;
}

Imagef to_gray(const Imagef& src)
{
    if (src.channels() == 1) return src;
    Imagef out = Frame_pool::instance().acquire(src.width(), src.height(), 1);
    util::parallel_for(0, src.height(), 16, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            for (int x = 0; x < src.width(); ++x) {
                out(x, y) = 0.299f * src(x, y, 0) + 0.587f * src(x, y, 1)
                            + 0.114f * src(x, y, 2);
            }
        }
    });
    return out;
}

namespace {

// out[i] = kernel(a[i], b[i]) with the output frame drawn from the pool.
Imagef binary_elementwise(const Imagef& a, const Imagef& b, const char* what,
                          void (*kernel)(const float*, const float*, float*, int))
{
    util::expects(a.same_shape(b), what);
    Imagef out = Frame_pool::instance().acquire(a.width(), a.height(), a.channels());
    auto dst = out.values();
    const auto lhs = a.values();
    const auto rhs = b.values();
    util::parallel_for(0, static_cast<std::int64_t>(dst.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           kernel(lhs.data() + i0, rhs.data() + i0, dst.data() + i0,
                                  static_cast<int>(i1 - i0));
                       });
    return out;
}

} // namespace

Imagef add(const Imagef& a, const Imagef& b)
{
    return binary_elementwise(a, b, "add: shape mismatch",
                              [](const float* lhs, const float* rhs, float* out, int n) {
                                  for (int i = 0; i < n; ++i) out[i] = lhs[i] + rhs[i];
                              });
}

Imagef abs_diff(const Imagef& a, const Imagef& b)
{
    return binary_elementwise(a, b, "abs_diff: shape mismatch",
                              [](const float* lhs, const float* rhs, float* out, int n) {
                                  for (int i = 0; i < n; ++i) out[i] = std::fabs(lhs[i] - rhs[i]);
                              });
}

Imagef affine(const Imagef& a, float scale, float offset)
{
    Imagef out = Frame_pool::instance().acquire(a.width(), a.height(), a.channels());
    auto dst = out.values();
    const auto in = a.values();
    util::parallel_for(0, static_cast<std::int64_t>(dst.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                               const auto s = static_cast<std::size_t>(i);
                               dst[s] = in[s] * scale + offset;
                           }
                       });
    return out;
}

void clamp(Imagef& image, float lo, float hi)
{
    util::expects(lo <= hi, "clamp: lo must not exceed hi");
    auto values = image.values();
    util::parallel_for(0, static_cast<std::int64_t>(values.size()), value_grain,
                       [&](std::int64_t i0, std::int64_t i1) {
                           for (auto i = static_cast<std::size_t>(i0);
                                i < static_cast<std::size_t>(i1); ++i) {
                               values[i] = std::min(std::max(values[i], lo), hi);
                           }
                       });
}

double mean(const Imagef& image)
{
    util::expects(!image.empty(), "mean of empty image");
    // Fixed-slice deterministic reduction (see thread_pool.hpp): partial
    // sums are merged in slice order regardless of thread count.
    const auto values = image.values();
    const double sum = util::parallel_reduce(
        0, static_cast<std::int64_t>(values.size()), value_grain, 0.0,
        [&](std::int64_t i0, std::int64_t i1) {
            double acc = 0.0;
            for (std::int64_t i = i0; i < i1; ++i) acc += values[static_cast<std::size_t>(i)];
            return acc;
        },
        [](double acc, double partial) { return acc + partial; });
    return sum / static_cast<double>(image.value_count());
}

double mean_region(const Imagef& image, int x0, int y0, int w, int h, int c)
{
    util::expects(w > 0 && h > 0, "mean_region: empty region");
    util::expects(x0 >= 0 && y0 >= 0 && x0 + w <= image.width() && y0 + h <= image.height(),
                  "mean_region: region out of bounds");
    double sum = 0.0;
    if (image.channels() == 1) {
        // Contiguous rows, each summed with a fixed 8-lane shape: lane i % 8
        // takes element i, and the lanes merge pairwise. The shape is the
        // result's definition (tests pin its bits), and the compiler turns
        // the inner 8-wide loop into vector adds.
        for (int y = y0; y < y0 + h; ++y) {
            const float* p = image.row(y).data() + x0;
            double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
            int i = 0;
            for (; i + 8 <= w; i += 8) {
                for (int j = 0; j < 8; ++j) lane[j] += static_cast<double>(p[i + j]);
            }
            for (int j = 0; i < w; ++i, ++j) lane[j] += static_cast<double>(p[i]);
            sum += ((lane[0] + lane[1]) + (lane[2] + lane[3]))
                   + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
        }
    }
    else {
        for (int y = y0; y < y0 + h; ++y) {
            for (int x = x0; x < x0 + w; ++x) sum += image(x, y, c);
        }
    }
    return sum / (static_cast<double>(w) * static_cast<double>(h));
}

double mean_abs_region(const Imagef& image, int x0, int y0, int w, int h, int c)
{
    util::expects(w > 0 && h > 0, "mean_abs_region: empty region");
    util::expects(x0 >= 0 && y0 >= 0 && x0 + w <= image.width() && y0 + h <= image.height(),
                  "mean_abs_region: region out of bounds");
    double sum = 0.0;
    for (int y = y0; y < y0 + h; ++y) {
        for (int x = x0; x < x0 + w; ++x) sum += std::fabs(image(x, y, c));
    }
    return sum / (static_cast<double>(w) * static_cast<double>(h));
}

std::pair<float, float> min_max(const Imagef& image)
{
    util::expects(!image.empty(), "min_max of empty image");
    float lo = image.values()[0];
    float hi = lo;
    for (const float v : image.values()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    return {lo, hi};
}

} // namespace inframe::img
