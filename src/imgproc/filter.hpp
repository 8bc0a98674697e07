// Spatial filtering. The decoder's core operation is "smooth the block,
// subtract, sum |difference|" (paper 3.3); box_blur is that smoother.
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// Separable box blur with clamp-to-edge borders. radius >= 0; radius 0 is a
// copy. Runs in O(pixels) per channel via sliding sums.
Imagef box_blur(const Imagef& src, int radius);

// Box blur with independent horizontal/vertical radii.
Imagef box_blur(const Imagef& src, int radius_x, int radius_y);

} // namespace inframe::img
