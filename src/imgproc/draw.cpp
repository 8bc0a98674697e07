#include "imgproc/draw.hpp"

#include <array>
#include <cmath>
#include <cstring>

namespace inframe::img {

void fill_rect(Imagef& image, int x0, int y0, int w, int h, float value)
{
    const int x_begin = std::max(x0, 0);
    const int y_begin = std::max(y0, 0);
    const int x_end = std::min(x0 + w, image.width());
    const int y_end = std::min(y0 + h, image.height());
    for (int y = y_begin; y < y_end; ++y) {
        for (int x = x_begin; x < x_end; ++x) {
            for (int c = 0; c < image.channels(); ++c) image(x, y, c) = value;
        }
    }
}

void fill_rect_rgb(Imagef& image, int x0, int y0, int w, int h, float r, float g, float b)
{
    util::expects(image.channels() == 3, "fill_rect_rgb requires an RGB image");
    const int x_begin = std::max(x0, 0);
    const int y_begin = std::max(y0, 0);
    const int x_end = std::min(x0 + w, image.width());
    const int y_end = std::min(y0 + h, image.height());
    for (int y = y_begin; y < y_end; ++y) {
        for (int x = x_begin; x < x_end; ++x) {
            image(x, y, 0) = r;
            image(x, y, 1) = g;
            image(x, y, 2) = b;
        }
    }
}

void fill_disc(Imagef& image, float cx, float cy, float radius, float value)
{
    util::expects(radius >= 0.0f, "fill_disc radius must be non-negative");
    const int x_begin = std::max(static_cast<int>(std::floor(cx - radius)), 0);
    const int y_begin = std::max(static_cast<int>(std::floor(cy - radius)), 0);
    const int x_end = std::min(static_cast<int>(std::ceil(cx + radius)) + 1, image.width());
    const int y_end = std::min(static_cast<int>(std::ceil(cy + radius)) + 1, image.height());
    const float r2 = radius * radius;
    for (int y = y_begin; y < y_end; ++y) {
        for (int x = x_begin; x < x_end; ++x) {
            const float dx = static_cast<float>(x) - cx;
            const float dy = static_cast<float>(y) - cy;
            if (dx * dx + dy * dy <= r2) {
                for (int c = 0; c < image.channels(); ++c) image(x, y, c) = value;
            }
        }
    }
}

Imagef checkerboard(int width, int height, int cell, float a, float b, int phase)
{
    util::expects(cell >= 1, "checkerboard cell must be >= 1");
    Imagef out(width, height, 1);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const int parity = ((x / cell) + (y / cell) + phase) & 1;
            out(x, y) = parity == 0 ? a : b;
        }
    }
    return out;
}

Imagef horizontal_gradient(int width, int height, float left, float right)
{
    Imagef out(width, height, 1);
    for (int x = 0; x < width; ++x) {
        const float t = width > 1 ? static_cast<float>(x) / static_cast<float>(width - 1) : 0.0f;
        const float v = left + (right - left) * t;
        for (int y = 0; y < height; ++y) out(x, y) = v;
    }
    return out;
}

namespace {

// 5x7 glyphs, one byte per row, low 5 bits used (bit 4 = leftmost column).
struct Glyph {
    char ch;
    std::array<std::uint8_t, 7> rows;
};

constexpr Glyph font[] = {
    {'0', {0x0e, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0e}},
    {'1', {0x04, 0x0c, 0x04, 0x04, 0x04, 0x04, 0x0e}},
    {'2', {0x0e, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1f}},
    {'3', {0x1f, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0e}},
    {'4', {0x02, 0x06, 0x0a, 0x12, 0x1f, 0x02, 0x02}},
    {'5', {0x1f, 0x10, 0x1e, 0x01, 0x01, 0x11, 0x0e}},
    {'6', {0x06, 0x08, 0x10, 0x1e, 0x11, 0x11, 0x0e}},
    {'7', {0x1f, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08}},
    {'8', {0x0e, 0x11, 0x11, 0x0e, 0x11, 0x11, 0x0e}},
    {'9', {0x0e, 0x11, 0x11, 0x0f, 0x01, 0x02, 0x0c}},
    {'A', {0x0e, 0x11, 0x11, 0x1f, 0x11, 0x11, 0x11}},
    {'B', {0x1e, 0x11, 0x11, 0x1e, 0x11, 0x11, 0x1e}},
    {'C', {0x0e, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0e}},
    {'D', {0x1c, 0x12, 0x11, 0x11, 0x11, 0x12, 0x1c}},
    {'E', {0x1f, 0x10, 0x10, 0x1e, 0x10, 0x10, 0x1f}},
    {'F', {0x1f, 0x10, 0x10, 0x1e, 0x10, 0x10, 0x10}},
    {'G', {0x0e, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0f}},
    {'H', {0x11, 0x11, 0x11, 0x1f, 0x11, 0x11, 0x11}},
    {'I', {0x0e, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0e}},
    {'J', {0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0c}},
    {'K', {0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11}},
    {'L', {0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1f}},
    {'M', {0x11, 0x1b, 0x15, 0x15, 0x11, 0x11, 0x11}},
    {'N', {0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11}},
    {'O', {0x0e, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0e}},
    {'P', {0x1e, 0x11, 0x11, 0x1e, 0x10, 0x10, 0x10}},
    {'Q', {0x0e, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0d}},
    {'R', {0x1e, 0x11, 0x11, 0x1e, 0x14, 0x12, 0x11}},
    {'S', {0x0f, 0x10, 0x10, 0x0e, 0x01, 0x01, 0x1e}},
    {'T', {0x1f, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04}},
    {'U', {0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0e}},
    {'V', {0x11, 0x11, 0x11, 0x11, 0x11, 0x0a, 0x04}},
    {'W', {0x11, 0x11, 0x11, 0x15, 0x15, 0x1b, 0x11}},
    {'X', {0x11, 0x11, 0x0a, 0x04, 0x0a, 0x11, 0x11}},
    {'Y', {0x11, 0x11, 0x0a, 0x04, 0x04, 0x04, 0x04}},
    {'Z', {0x1f, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1f}},
    {' ', {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
    {'.', {0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x0c}},
    {':', {0x00, 0x0c, 0x0c, 0x00, 0x0c, 0x0c, 0x00}},
    {'-', {0x00, 0x00, 0x00, 0x1f, 0x00, 0x00, 0x00}},
};

const Glyph* find_glyph(char ch)
{
    if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
    for (const auto& glyph : font) {
        if (glyph.ch == ch) return &glyph;
    }
    return nullptr;
}

} // namespace

void draw_text(Imagef& image, int x0, int y0, const char* text, float value, int scale)
{
    util::expects(text != nullptr, "draw_text requires text");
    util::expects(scale >= 1, "draw_text scale must be >= 1");
    int pen_x = x0;
    for (const char* p = text; *p != '\0'; ++p) {
        const Glyph* glyph = find_glyph(*p);
        if (glyph != nullptr) {
            for (int row = 0; row < 7; ++row) {
                for (int col = 0; col < 5; ++col) {
                    if ((glyph->rows[static_cast<std::size_t>(row)] >> (4 - col)) & 1) {
                        fill_rect(image, pen_x + col * scale, y0 + row * scale, scale, scale,
                                  value);
                    }
                }
            }
        }
        pen_x += 6 * scale;
    }
}

} // namespace inframe::img
