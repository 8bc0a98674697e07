#include "imgproc/warp.hpp"

#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace inframe::img {

Homography::Homography() : m_{1, 0, 0, 0, 1, 0, 0, 0, 1} {}

Homography::Homography(const std::array<double, 9>& m) : m_(m)
{
    util::expects(std::all_of(m.begin(), m.end(), [](double v) { return std::isfinite(v); }),
                  "homography: entries must be finite");
    util::expects(std::fabs(m[8]) > 1e-12 || std::fabs(m[6]) + std::fabs(m[7]) > 1e-12,
                  "homography: degenerate matrix");
}

Homography Homography::identity()
{
    return Homography();
}

Homography Homography::translation(double dx, double dy)
{
    return Homography({1, 0, dx, 0, 1, dy, 0, 0, 1});
}

Homography Homography::scale(double sx, double sy)
{
    util::expects(sx != 0.0 && sy != 0.0, "homography: zero scale");
    return Homography({sx, 0, 0, 0, sy, 0, 0, 0, 1});
}

Homography Homography::unit_square_to_quad(const std::array<double, 8>& c)
{
    // Standard projective mapping of the unit square to a quad
    // (Heckbert's formulation). Corners clockwise from top-left:
    // (x0,y0) <- (0,0), (x1,y1) <- (1,0), (x2,y2) <- (1,1), (x3,y3) <- (0,1).
    const double x0 = c[0], y0 = c[1], x1 = c[2], y1 = c[3];
    const double x2 = c[4], y2 = c[5], x3 = c[6], y3 = c[7];
    const double dx1 = x1 - x2;
    const double dx2 = x3 - x2;
    const double dy1 = y1 - y2;
    const double dy2 = y3 - y2;
    const double sx = x0 - x1 + x2 - x3;
    const double sy = y0 - y1 + y2 - y3;
    const double denom = dx1 * dy2 - dx2 * dy1;
    util::expects(std::fabs(denom) > 1e-12, "homography: collinear quad corners");
    const double g = (sx * dy2 - sy * dx2) / denom;
    const double h = (sy * dx1 - sx * dy1) / denom;
    const double a = x1 - x0 + g * x1;
    const double b = x3 - x0 + h * x3;
    const double d = y1 - y0 + g * y1;
    const double e = y3 - y0 + h * y3;
    return Homography({a, b, x0, d, e, y0, g, h, 1.0});
}

Homography Homography::rect_to_quad(double w, double h, const std::array<double, 8>& corners)
{
    util::expects(w > 0.0 && h > 0.0, "homography: rectangle must be non-empty");
    return unit_square_to_quad(corners) * scale(1.0 / w, 1.0 / h);
}

Homography operator*(const Homography& a, const Homography& b)
{
    std::array<double, 9> out{};
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) {
            double acc = 0.0;
            for (int k = 0; k < 3; ++k) {
                acc += a.m_[static_cast<std::size_t>(r * 3 + k)]
                       * b.m_[static_cast<std::size_t>(k * 3 + c)];
            }
            out[static_cast<std::size_t>(r * 3 + c)] = acc;
        }
    }
    return Homography(out);
}

void Homography::apply(double x, double y, double& out_x, double& out_y) const
{
    const double w = m_[6] * x + m_[7] * y + m_[8];
    util::expects(std::fabs(w) > 1e-12, "homography: point maps to infinity");
    out_x = (m_[0] * x + m_[1] * y + m_[2]) / w;
    out_y = (m_[3] * x + m_[4] * y + m_[5]) / w;
}

Homography Homography::inverse() const
{
    const auto& m = m_;
    std::array<double, 9> adj = {
        m[4] * m[8] - m[5] * m[7], m[2] * m[7] - m[1] * m[8], m[1] * m[5] - m[2] * m[4],
        m[5] * m[6] - m[3] * m[8], m[0] * m[8] - m[2] * m[6], m[2] * m[3] - m[0] * m[5],
        m[3] * m[7] - m[4] * m[6], m[1] * m[6] - m[0] * m[7], m[0] * m[4] - m[1] * m[3]};
    const double det = m[0] * adj[0] + m[1] * adj[3] + m[2] * adj[6];
    util::expects(std::fabs(det) > 1e-12, "homography: singular matrix");
    for (auto& v : adj) v /= det;
    return Homography(adj);
}

float sample_bilinear(const Imagef& src, float x, float y, int c)
{
    const float fx = std::clamp(x, 0.0f, static_cast<float>(src.width() - 1));
    const float fy = std::clamp(y, 0.0f, static_cast<float>(src.height() - 1));
    const int x0 = static_cast<int>(fx);
    const int y0 = static_cast<int>(fy);
    const int x1 = std::min(x0 + 1, src.width() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const float tx = fx - static_cast<float>(x0);
    const float ty = fy - static_cast<float>(y0);
    const float top = src(x0, y0, c) * (1.0f - tx) + src(x1, y0, c) * tx;
    const float bottom = src(x0, y1, c) * (1.0f - tx) + src(x1, y1, c) * tx;
    return top * (1.0f - ty) + bottom * ty;
}

namespace {

// One axis of sample_bilinear's tap: the position clamped to [0, n - 1],
// its truncated index, the next index (clamped) and the weight of the
// next, with exactly sample_bilinear's float ops.
struct Axis_tap {
    int i0;
    int i1;
    float t;
};

Axis_tap axis_tap(float v, int n)
{
    const float f = std::clamp(v, 0.0f, static_cast<float>(n - 1));
    const int i0 = static_cast<int>(f);
    return {i0, std::min(i0 + 1, n - 1), f - static_cast<float>(i0)};
}

// The horizontal half of an axis-aligned warp's plan, per output value
// (column x channel): the weights 1 - t and t of its two source taps.
// Columns are grouped into segments. In a contiguous segment every
// column's taps are adjacent source columns at one fixed offset (the
// interior of a translation), so the lerp runs over contiguous loads; a
// gather segment reads each column's taps through its own offsets.
struct Column_plan {
    struct Segment {
        int begin;
        int end;
        bool contiguous;
        std::ptrdiff_t shift; // contiguous: first tap of value i is in[i + shift]
    };
    std::vector<std::ptrdiff_t> tap0; // per column, offset of the first tap's values
    std::vector<std::ptrdiff_t> tap1;
    std::vector<float> w0;
    std::vector<float> w1;
    std::vector<Segment> segments;
};

// Shorter contiguous runs lerp as gathers: their loop setup outweighs
// the contiguous loads.
constexpr int min_contiguous_columns = 8;

Column_plan plan_columns(const Homography& dst_to_src, int out_w, int src_w, int channels)
{
    Column_plan plan;
    const auto values = static_cast<std::size_t>(out_w) * static_cast<std::size_t>(channels);
    plan.w0.resize(values);
    plan.w1.resize(values);
    std::vector<Column_plan::Segment> runs;
    for (int x = 0; x < out_w; ++x) {
        double sx = 0.0;
        double sy = 0.0;
        dst_to_src.apply(static_cast<double>(x), 0.0, sx, sy);
        const Axis_tap t = axis_tap(static_cast<float>(sx), src_w);
        plan.tap0.push_back(static_cast<std::ptrdiff_t>(t.i0) * channels);
        plan.tap1.push_back(static_cast<std::ptrdiff_t>(t.i1) * channels);
        for (int c = 0; c < channels; ++c) {
            const auto i = static_cast<std::size_t>(x * channels + c);
            plan.w0[i] = 1.0f - t.t;
            plan.w1[i] = t.t;
        }
        const bool adjacent = t.i1 == t.i0 + 1;
        const auto shift = static_cast<std::ptrdiff_t>(t.i0 - x) * channels;
        if (!runs.empty() && runs.back().contiguous == adjacent
            && (!adjacent || runs.back().shift == shift)) {
            ++runs.back().end;
        } else {
            runs.push_back({x, x + 1, adjacent, shift});
        }
    }
    for (auto run : runs) {
        if (run.end - run.begin < min_contiguous_columns) run.contiguous = false;
        if (!run.contiguous && !plan.segments.empty() && !plan.segments.back().contiguous) {
            plan.segments.back().end = run.end;
        } else {
            plan.segments.push_back(run);
        }
    }
    return plan;
}

// Axis-aligned dst_to_src (m1 = m3 = m6 = m7 = 0, so w is the constant
// m8): x' depends on x alone and y' on y alone. apply(x, 0) and apply(0, y)
// then return, bit for bit, the coordinates apply(x, y) returns for every
// pixel, so the taps factor into one plan per column and one per row.
// Each output row is the vertical lerp of two horizontally lerped source
// rows: the same two lerps in the same order as sample_bilinear, so the
// output is byte-identical to the per-pixel loop. Each row chunk keeps
// the last two lerped source rows, which consecutive output rows share.
void warp_axis_aligned(const Imagef& src, const Homography& dst_to_src, Imagef& out)
{
    const int channels = src.channels();
    const std::size_t row_values = static_cast<std::size_t>(out.width()) * channels;
    const Column_plan cols = plan_columns(dst_to_src, out.width(), src.width(), channels);
    std::vector<Axis_tap> rows;
    for (int y = 0; y < out.height(); ++y) {
        double sx = 0.0;
        double sy = 0.0;
        dst_to_src.apply(0.0, static_cast<double>(y), sx, sy);
        rows.push_back(axis_tap(static_cast<float>(sy), src.height()));
    }

    const auto lerp_row = [&](int src_y, float* dst) {
        const float* in = src.row(src_y).data();
        const float* w0 = cols.w0.data();
        const float* w1 = cols.w1.data();
        for (const auto& segment : cols.segments) {
            if (segment.contiguous) {
                const float* a = in + segment.shift;
                const float* b = a + channels;
                for (int i = segment.begin * channels; i < segment.end * channels; ++i) {
                    dst[i] = a[i] * w0[i] + b[i] * w1[i];
                }
                continue;
            }
            for (int x = segment.begin; x < segment.end; ++x) {
                const float* a = in + cols.tap0[static_cast<std::size_t>(x)];
                const float* b = in + cols.tap1[static_cast<std::size_t>(x)];
                for (int c = 0; c < channels; ++c) {
                    const int i = x * channels + c;
                    dst[i] = a[c] * w0[i] + b[c] * w1[i];
                }
            }
        }
    };

    util::parallel_for(0, out.height(), 16, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<float> cache(2 * row_values);
        int cached[2] = {-1, -1};
        // The lerped source row src_y, computed into the slot not holding
        // `keep` (the other row the current output row reads) on a miss.
        const auto fetch = [&](int src_y, int keep) -> const float* {
            for (int s = 0; s < 2; ++s) {
                if (cached[s] == src_y) return cache.data() + s * row_values;
            }
            const int s = cached[0] == keep ? 1 : 0;
            float* slot = cache.data() + s * row_values;
            lerp_row(src_y, slot);
            cached[s] = src_y;
            return slot;
        };
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            const Axis_tap t = rows[static_cast<std::size_t>(y)];
            const float* top = fetch(t.i0, t.i1);
            const float* bottom = fetch(t.i1, t.i0);
            const float w0 = 1.0f - t.t;
            float* dst = out.row(y).data();
            for (std::size_t i = 0; i < row_values; ++i) dst[i] = top[i] * w0 + bottom[i] * t.t;
        }
    });
}

} // namespace

Imagef warp_perspective(const Imagef& src, const Homography& dst_to_src, int out_w, int out_h)
{
    util::expects(out_w > 0 && out_h > 0, "warp_perspective: output must be non-empty");
    Imagef out = Frame_pool::instance().acquire(out_w, out_h, src.channels());
    const auto& m = dst_to_src.matrix();
    if (m[1] == 0.0 && m[3] == 0.0 && m[6] == 0.0 && m[7] == 0.0) {
        warp_axis_aligned(src, dst_to_src, out);
        return out;
    }
    util::parallel_for(0, out_h, 16, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            for (int x = 0; x < out_w; ++x) {
                double sx = 0.0;
                double sy = 0.0;
                dst_to_src.apply(static_cast<double>(x), static_cast<double>(y), sx, sy);
                for (int c = 0; c < src.channels(); ++c) {
                    out(x, y, c) = sample_bilinear(src, static_cast<float>(sx),
                                                   static_cast<float>(sy), c);
                }
            }
        }
    });
    return out;
}

} // namespace inframe::img
