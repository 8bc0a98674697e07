#include "imgproc/filter.hpp"

#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace inframe::img {

namespace {

// Rows per parallel chunk. Fixed (thread-count-independent) so chunk
// boundaries — and with them any per-chunk state — are deterministic.
constexpr std::int64_t row_grain = 16;

// Horizontal box blur for a band of rows: every (row, channel) pair is an
// independent sliding-window stream, so up to 8 of them ride in the vector
// lanes of one box_blur_h call. Each lane replays the exact scalar
// sequence (double window, float entering-leaving subtract, double add),
// so output is identical for any lane grouping and any SIMD level.
void box_blur_horizontal_band(const Imagef& src, Imagef& dst, int radius, int y_begin,
                              int y_end)
{
    const auto& k = simd::kernels();
    const int ch = src.channels();
    constexpr int max_lanes = 8;
    std::array<const float*, max_lanes> in{};
    std::array<float*, max_lanes> out{};
    int lanes = 0;
    for (int y = y_begin; y < y_end; ++y) {
        const float* in_row = src.row(y).data();
        float* out_row = dst.row(y).data();
        for (int c = 0; c < ch; ++c) {
            in[static_cast<std::size_t>(lanes)] = in_row + c;
            out[static_cast<std::size_t>(lanes)] = out_row + c;
            if (++lanes == max_lanes) {
                k.box_blur_h(in.data(), out.data(), lanes, src.width(), ch, radius);
                lanes = 0;
            }
        }
    }
    if (lanes > 0) k.box_blur_h(in.data(), out.data(), lanes, src.width(), ch, radius);
}

// Vertical box blur over a band of output rows, accumulating whole rows at a
// time: the inner loops stride unit distance through memory instead of
// jumping width*channels floats per step as a column-by-column pass would.
// The sliding window is a row of double sums, re-initialized at the band
// start; band boundaries depend only on the grain, so every thread count
// (including the serial path) produces identical output. Every loop is
// elementwise across the row (float subtract, then double add), so the
// compiler vectorizes it without changing a bit.
void box_blur_vertical_band(const Imagef& src, Imagef& dst, int radius, int y_begin, int y_end)
{
    const int height = src.height();
    const auto row_values = src.row(0).size();
    const float norm = 1.0f / static_cast<float>(2 * radius + 1);

    std::vector<double> window(row_values, 0.0);
    for (int j = y_begin - radius; j <= y_begin + radius; ++j) {
        const float* row = src.row(std::clamp(j, 0, height - 1)).data();
        for (std::size_t i = 0; i < row_values; ++i) window[i] += static_cast<double>(row[i]);
    }
    for (int y = y_begin; y < y_end; ++y) {
        float* out = dst.row(y).data();
        const float* leaving = src.row(std::clamp(y - radius, 0, height - 1)).data();
        const float* entering = src.row(std::clamp(y + radius + 1, 0, height - 1)).data();
        for (std::size_t i = 0; i < row_values; ++i) {
            out[i] = static_cast<float>(window[i]) * norm;
            window[i] += static_cast<double>(entering[i] - leaving[i]);
        }
    }
}

} // namespace

Imagef box_blur(const Imagef& src, int radius_x, int radius_y)
{
    util::expects(radius_x >= 0 && radius_y >= 0, "box_blur radius must be non-negative");
    if (radius_x == 0 && radius_y == 0) return src;

    const int ch = src.channels();
    Imagef horizontal;
    if (radius_x > 0) {
        horizontal = Frame_pool::instance().acquire(src.width(), src.height(), ch);
        util::parallel_for(0, src.height(), row_grain, [&](std::int64_t y0, std::int64_t y1) {
            box_blur_horizontal_band(src, horizontal, radius_x, static_cast<int>(y0),
                                     static_cast<int>(y1));
        });
        if (radius_y == 0) return horizontal;
    }
    const Imagef& h_src = radius_x > 0 ? horizontal : src;

    Imagef out = Frame_pool::instance().acquire(src.width(), src.height(), ch);
    // Bands must be at least as tall as the radius or the O(radius) window
    // init dominates; the grain is still a pure function of the radius.
    const std::int64_t band = std::max<std::int64_t>(row_grain, radius_y);
    util::parallel_for(0, src.height(), band, [&](std::int64_t y0, std::int64_t y1) {
        box_blur_vertical_band(h_src, out, radius_y, static_cast<int>(y0),
                               static_cast<int>(y1));
    });
    if (radius_x > 0) Frame_pool::instance().recycle(std::move(horizontal));
    return out;
}

Imagef box_blur(const Imagef& src, int radius)
{
    return box_blur(src, radius, radius);
}

} // namespace inframe::img
