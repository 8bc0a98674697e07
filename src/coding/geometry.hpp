// Data-frame geometry (paper 3.3).
//
// The hierarchy, smallest to largest:
//   Element pixel  — one physical display pixel;
//   Pixel          — p x p Element pixels sharing one value (the minimum
//                    operating unit; p approximates the eye's resolution
//                    at the intended viewing distance);
//   Block          — s x s Pixels carrying ONE bit;
//   GOB            — m x m Blocks protected together (the paper uses 2x2
//                    with an XOR parity block).
//
// The paper's rig: 1920x1080 screen, data frames of 50x30 Blocks grouped
// into 25x15 GOBs, i.e. 375 GOBs x 3 payload bits = 1125 bits per data
// frame. paper_geometry() reproduces that layout and scales it to other
// resolutions.
#pragma once

#include "util/contract.hpp"

#include <cstdint>

namespace inframe::coding {

struct Block_rect {
    int x0 = 0;
    int y0 = 0;
    int size = 0; // square side in Element pixels
};

// A rectangle of capture (sensor) pixels; never empty.
struct Capture_rect {
    int x0 = 0;
    int y0 = 0;
    int width = 0;
    int height = 0;
};

struct Code_geometry {
    int screen_width = 1920;
    int screen_height = 1080;

    int pixel_size = 4;  // p: Element pixels per Pixel side
    int block_pixels = 9; // s: Pixels per Block side
    int gob_size = 2;    // m: Blocks per GOB side

    int blocks_x = 50; // data frame width in Blocks
    int blocks_y = 30; // data frame height in Blocks

    // Throws Contract_violation unless the layout fits the screen and the
    // block grid divides evenly into GOBs.
    void validate() const;

    int block_px() const { return pixel_size * block_pixels; }
    int active_width() const { return blocks_x * block_px(); }
    int active_height() const { return blocks_y * block_px(); }

    // Active area is centred on the screen.
    int origin_x() const { return (screen_width - active_width()) / 2; }
    int origin_y() const { return (screen_height - active_height()) / 2; }

    int gobs_x() const { return blocks_x / gob_size; }
    int gobs_y() const { return blocks_y / gob_size; }
    int gob_count() const { return gobs_x() * gobs_y(); }
    int block_count() const { return blocks_x * blocks_y; }

    // Data bits per GOB: all blocks minus one parity block.
    int payload_bits_per_gob() const { return gob_size * gob_size - 1; }

    // The paper's w/s/2 x h/s/2 x 3 capacity.
    int payload_bits_per_frame() const { return gob_count() * payload_bits_per_gob(); }

    // Element-pixel rectangle of Block (bx, by).
    Block_rect block_rect(int bx, int by) const;

    // Where Block (bx, by) lands on a capture_width x capture_height
    // capture of the whole screen: its rectangle scaled to the capture and
    // shrunk by one capture pixel on each side, so neighbouring blocks do
    // not bleed in, then clamped to at least one pixel inside the capture.
    Capture_rect capture_rect(int bx, int by, int capture_width, int capture_height) const;

    // Raster index of Block (bx, by) within the data frame.
    int block_index(int bx, int by) const;
};

// The paper's layout for the given screen size: p scales with resolution
// (4 at 1080 rows) so the Block grid stays 50x30 and the angular size of a
// Pixel is unchanged.
Code_geometry paper_geometry(int screen_width, int screen_height);

// A layout with an explicit Pixel size: as many whole GOBs as fit the
// screen. Use when the capture path cannot resolve paper_geometry's
// Pixels (e.g. small demo screens captured by a realistic camera: a
// larger p moves the chessboard away from the sensor's Nyquist limit).
Code_geometry fitted_geometry(int screen_width, int screen_height, int pixel_size,
                              int block_pixels = 9);

} // namespace inframe::coding
