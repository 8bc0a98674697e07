// Full-reference image quality metrics. Used to verify that the decoded
// experience matches the paper's claims: complementary pairs must average
// back to the original (high PSNR of the temporal mean vs. V), while
// individual multiplexed frames show "obvious artifacts" (low PSNR).
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// Mean absolute error between same-shaped images.
double mae(const Imagef& a, const Imagef& b);

// Mean squared error.
double mse(const Imagef& a, const Imagef& b);

// Peak signal-to-noise ratio in dB for the 8-bit domain (peak = 255).
// Returns +inf for identical images.
double psnr(const Imagef& a, const Imagef& b);

} // namespace inframe::img
