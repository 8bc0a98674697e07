#include "coding/geometry.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::coding {

void Code_geometry::validate() const
{
    util::expects(screen_width > 0 && screen_height > 0, "geometry: screen must be non-empty");
    util::expects(pixel_size >= 1, "geometry: pixel_size must be >= 1");
    util::expects(block_pixels >= 2, "geometry: block needs at least 2x2 Pixels for a pattern");
    util::expects(gob_size >= 2, "geometry: GOB needs at least 2x2 blocks");
    util::expects(blocks_x >= gob_size && blocks_y >= gob_size,
                  "geometry: data frame smaller than one GOB");
    util::expects(blocks_x % gob_size == 0 && blocks_y % gob_size == 0,
                  "geometry: block grid must divide into whole GOBs");
    util::expects(active_width() <= screen_width && active_height() <= screen_height,
                  "geometry: active area exceeds the screen");
}

Block_rect Code_geometry::block_rect(int bx, int by) const
{
    util::expects(bx >= 0 && bx < blocks_x && by >= 0 && by < blocks_y,
                  "geometry: block coordinate out of range");
    return Block_rect{origin_x() + bx * block_px(), origin_y() + by * block_px(), block_px()};
}

Capture_rect Code_geometry::capture_rect(int bx, int by, int capture_width,
                                         int capture_height) const
{
    util::expects(capture_width > 0 && capture_height > 0, "geometry: capture must be non-empty");
    const Block_rect rect = block_rect(bx, by);
    const double sx = static_cast<double>(capture_width) / screen_width;
    const double sy = static_cast<double>(capture_height) / screen_height;
    const int x0 = std::clamp(static_cast<int>(std::ceil(rect.x0 * sx)) + 1, 0, capture_width - 1);
    const int y0 =
        std::clamp(static_cast<int>(std::ceil(rect.y0 * sy)) + 1, 0, capture_height - 1);
    const int x1 = std::clamp(static_cast<int>(std::floor((rect.x0 + rect.size) * sx)) - 1,
                              x0 + 1, capture_width);
    const int y1 = std::clamp(static_cast<int>(std::floor((rect.y0 + rect.size) * sy)) - 1,
                              y0 + 1, capture_height);
    return Capture_rect{x0, y0, x1 - x0, y1 - y0};
}

int Code_geometry::block_index(int bx, int by) const
{
    util::expects(bx >= 0 && bx < blocks_x && by >= 0 && by < blocks_y,
                  "geometry: block coordinate out of range");
    return by * blocks_x + bx;
}

Code_geometry fitted_geometry(int screen_width, int screen_height, int pixel_size,
                              int block_pixels)
{
    Code_geometry geometry;
    geometry.screen_width = screen_width;
    geometry.screen_height = screen_height;
    geometry.pixel_size = pixel_size;
    geometry.block_pixels = block_pixels;
    geometry.gob_size = 2;
    const int block = geometry.block_px();
    util::expects(block > 0 && screen_width >= 2 * block && screen_height >= 2 * block,
                  "fitted_geometry: screen smaller than one GOB");
    geometry.blocks_x = screen_width / block / 2 * 2;
    geometry.blocks_y = screen_height / block / 2 * 2;
    geometry.validate();
    return geometry;
}

Code_geometry paper_geometry(int screen_width, int screen_height)
{
    Code_geometry geometry;
    geometry.screen_width = screen_width;
    geometry.screen_height = screen_height;
    // p = 4 at 1080 rows; scale linearly so a Block (s = 9 Pixels) keeps
    // its angular size and the 50x30 Block grid its coverage.
    geometry.pixel_size = std::max(1, screen_height * 4 / 1080);
    geometry.block_pixels = 9;
    geometry.gob_size = 2;
    geometry.blocks_x = 50;
    geometry.blocks_y = 30;
    // Shrink the grid if a small screen cannot hold the full layout.
    while (geometry.blocks_x > 2 && geometry.active_width() > screen_width) {
        geometry.blocks_x -= 2;
    }
    while (geometry.blocks_y > 2 && geometry.active_height() > screen_height) {
        geometry.blocks_y -= 2;
    }
    geometry.validate();
    return geometry;
}

} // namespace inframe::coding
