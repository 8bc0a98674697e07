// Homographies and perspective warping.
//
// The paper's rig captures the screen head-on from 50 cm; a real phone
// views it from an angle. A plane-to-plane homography models that geometry
// exactly: the camera model warps the screen image through it, and the
// perspective-aware decoder maps sensor pixels back through the inverse.
#pragma once

#include "imgproc/image.hpp"

#include <array>

namespace inframe::img {

// 3x3 projective transform, row-major. Maps (x, y) -> (x', y') via
// homogeneous coordinates. Every entry must be finite: construction,
// composition and inversion throw Contract_violation otherwise.
class Homography {
public:
    // Identity by default.
    Homography();
    explicit Homography(const std::array<double, 9>& m);

    static Homography identity();

    // Translation and axis-aligned scale (affine special cases).
    static Homography translation(double dx, double dy);
    static Homography scale(double sx, double sy);

    // The unique homography mapping the unit square's corners
    // (0,0),(1,0),(1,1),(0,1) to the four given points (clockwise from
    // top-left). Build arbitrary quad mappings by composition.
    static Homography unit_square_to_quad(const std::array<double, 8>& corners);

    // Maps the rectangle [0,w]x[0,h] to the quad given by 4 corner points
    // (x0,y0, x1,y1, x2,y2, x3,y3; clockwise from top-left).
    static Homography rect_to_quad(double w, double h, const std::array<double, 8>& corners);

    // Composition: (a * b)(p) == a(b(p)).
    friend Homography operator*(const Homography& a, const Homography& b);

    // Applies to a point.
    void apply(double x, double y, double& out_x, double& out_y) const;

    // Matrix inverse (throws Contract_violation if singular).
    Homography inverse() const;

    const std::array<double, 9>& matrix() const { return m_; }

private:
    std::array<double, 9> m_;
};

// Bilinear sample at a real-valued position (clamp-to-edge).
float sample_bilinear(const Imagef& src, float x, float y, int c = 0);

// Warps src into an out_w x out_h image: each destination pixel samples
// src at dst_to_src(x, y) with bilinear interpolation; samples falling
// outside src use clamp-to-edge. An axis-aligned dst_to_src (translation,
// axis scale) takes a per-axis tap plan with the same bytes as the
// per-pixel loop.
Imagef warp_perspective(const Imagef& src, const Homography& dst_to_src, int out_w, int out_h);

} // namespace inframe::img
