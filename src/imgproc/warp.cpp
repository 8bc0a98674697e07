#include "imgproc/warp.hpp"

#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::img {

Homography::Homography() : m_{1, 0, 0, 0, 1, 0, 0, 0, 1} {}

Homography::Homography(const std::array<double, 9>& m) : m_(m)
{
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

Imagef warp_perspective(const Imagef& src, const Homography& dst_to_src, int out_w, int out_h)
{
    util::expects(out_w > 0 && out_h > 0, "warp_perspective: output must be non-empty");
    Imagef out = Frame_pool::instance().acquire(out_w, out_h, src.channels());
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
