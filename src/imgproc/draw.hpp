// Drawing primitives for procedural video generation (the paper's test
// inputs are pure-color videos plus a sunrise clip) and for visual dumps.
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// Fills an axis-aligned rectangle (clipped to the image) on channel set.
void fill_rect(Imagef& image, int x0, int y0, int w, int h, float value);
void fill_rect_rgb(Imagef& image, int x0, int y0, int w, int h, float r, float g, float b);

// Filled disc centred at (cx, cy), clipped.
void fill_disc(Imagef& image, float cx, float cy, float radius, float value);

// Chessboard of `cell` x `cell` pixels alternating between two values,
// phase-selectable (phase 0: (0,0) cell = a; phase 1: (0,0) cell = b).
Imagef checkerboard(int width, int height, int cell, float a, float b, int phase = 0);

// Horizontal linear gradient from `left` to `right`.
Imagef horizontal_gradient(int width, int height, float left, float right);

// Renders a 5x7 bitmap digit/letter string scaled by `scale` at (x0, y0).
// Supports [0-9A-Z .:-]; unknown characters render as blanks.
void draw_text(Imagef& image, int x0, int y0, const char* text, float value, int scale = 1);

} // namespace inframe::img
