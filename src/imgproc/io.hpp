// Image file I/O: binary PGM (P5) for grayscale and PPM (P6) for RGB, the
// simplest formats every external viewer understands. Used by the examples
// and benches to dump Fig. 4-style frame pairs.
#pragma once

#include "imgproc/image.hpp"

#include <string>

namespace inframe::img {

// Writes an 8-bit image as PGM (1 channel) or PPM (3 channels).
void write_pnm(const Image8& image, const std::string& path);

// Convenience: round/clamp a float image and write it.
void write_pnm(const Imagef& image, const std::string& path);

} // namespace inframe::img
