// Elementwise arithmetic on float images. These are the primitives the
// encoder (V +- D multiplexing, clamping) and decoder (residual = |I -
// smooth(I)|) are written in.
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// out = a + b (shapes must match).
Imagef add(const Imagef& a, const Imagef& b);

// out = |a - b| (shapes must match).
Imagef abs_diff(const Imagef& a, const Imagef& b);

// out = a * scale + offset.
Imagef affine(const Imagef& a, float scale, float offset);

// In-place clamp of every value to [lo, hi].
void clamp(Imagef& image, float lo, float hi);

// Mean over all values.
double mean(const Imagef& image);

// Mean over a rectangular region (must lie inside the image); channel 0.
double mean_region(const Imagef& image, int x0, int y0, int w, int h, int c = 0);

// Mean of |values| over a region; channel c.
double mean_abs_region(const Imagef& image, int x0, int y0, int w, int h, int c = 0);

// Min and max over all values.
std::pair<float, float> min_max(const Imagef& image);

} // namespace inframe::img
