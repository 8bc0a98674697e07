// Elementwise arithmetic on float images. These are the primitives the
// encoder (V +- D multiplexing, clamping) and decoder (residual = |I -
// smooth(I)|) are written in.
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// out = a + b (shapes must match).
Imagef add(const Imagef& a, const Imagef& b);

// out = a - b (shapes must match).
Imagef subtract(const Imagef& a, const Imagef& b);

// out = |a - b| (shapes must match).
Imagef abs_diff(const Imagef& a, const Imagef& b);

// out = a * scale + offset.
Imagef affine(const Imagef& a, float scale, float offset);

// In-place clamp of every value to [lo, hi].
void clamp(Imagef& image, float lo, float hi);

// In-place a += b * weight.
void accumulate(Imagef& a, const Imagef& b, float weight = 1.0f);

// Mean over all values.
double mean(const Imagef& image);

// Mean over a rectangular region (must lie inside the image); channel 0.
double mean_region(const Imagef& image, int x0, int y0, int w, int h, int c = 0);

// Mean of |values| over a region; channel c.
double mean_abs_region(const Imagef& image, int x0, int y0, int w, int h, int c = 0);

// Min and max over all values.
std::pair<float, float> min_max(const Imagef& image);

// Returns a copy scaled so values map [in_lo,in_hi] -> [0,255], clamped.
Imagef normalize_to_8bit(const Imagef& image, float in_lo, float in_hi);

} // namespace inframe::img
