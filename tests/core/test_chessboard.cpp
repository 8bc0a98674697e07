// Chessboard on/off keying (paper 3.3), checked through the encoder's
// embed pass as make_complementary_pair exposes it: bit 0 leaves the video
// untouched, bit 1 raises (plus) or lowers (minus) every Pixel (i, j) with
// i + j odd by delta.

#include "core/encoder.hpp"

#include "imgproc/filter.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

Inframe_config small_config(float delta)
{
    // 4 x 2 blocks of 3x3 Pixels at p = 2 on a 28x16 screen (24x12 active).
    Inframe_config config;
    auto& g = config.geometry;
    g.screen_width = 28;
    g.screen_height = 16;
    g.pixel_size = 2;
    g.block_pixels = 3;
    g.gob_size = 2;
    g.blocks_x = 4;
    g.blocks_y = 2;
    config.delta = delta;
    config.validate();
    return config;
}

std::vector<std::uint8_t> bits_with(const Inframe_config& config, int bx, int by)
{
    const auto& g = config.geometry;
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(g.block_count()), 0);
    bits[static_cast<std::size_t>(g.block_index(bx, by))] = 1;
    return bits;
}

// The data frame D = (V + D) - V over mid-gray video, where the local cap
// leaves the full delta.
Imagef data_frame(const Inframe_config& config, const std::vector<std::uint8_t>& bits)
{
    const Imagef video(config.geometry.screen_width, config.geometry.screen_height, 1, 100.0f);
    Imagef d = make_complementary_pair(config, video, bits).plus;
    for (float& v : d.values()) v -= 100.0f;
    return d;
}

TEST(Chessboard, ZeroBitsRenderNothing)
{
    const auto config = small_config(20.0f);
    const std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(config.geometry.block_count()), 0);
    const Imagef video(28, 16, 1, 100.0f);
    const auto pair = make_complementary_pair(config, video, bits);
    for (const float v : pair.plus.values()) EXPECT_EQ(v, 100.0f);
    for (const float v : pair.minus.values()) EXPECT_EQ(v, 100.0f);
}

TEST(Chessboard, OneBitsRaiseOddPixelsOnly)
{
    const auto config = small_config(20.0f);
    const Imagef frame = data_frame(config, bits_with(config, 0, 0));
    const auto rect = config.geometry.block_rect(0, 0);
    // Pixel (0,0) of the block: i+j even -> 0.
    EXPECT_EQ(frame(rect.x0, rect.y0), 0.0f);
    // Pixel (1,0): i+j odd -> delta, and the whole 2x2 Element area shares it.
    EXPECT_EQ(frame(rect.x0 + 2, rect.y0), 20.0f);
    EXPECT_EQ(frame(rect.x0 + 3, rect.y0 + 1), 20.0f);
    // Pixel (1,1): even again.
    EXPECT_EQ(frame(rect.x0 + 2, rect.y0 + 2), 0.0f);
}

TEST(Chessboard, PatternConfinedToItsBlock)
{
    const auto config = small_config(20.0f);
    const Imagef frame = data_frame(config, bits_with(config, 1, 0));
    const auto rect = config.geometry.block_rect(1, 0);
    double outside = 0.0;
    for (int y = 0; y < frame.height(); ++y) {
        for (int x = 0; x < frame.width(); ++x) {
            const bool inside = x >= rect.x0 && x < rect.x0 + rect.size && y >= rect.y0
                                && y < rect.y0 + rect.size;
            if (!inside) outside += std::abs(frame(x, y));
        }
    }
    EXPECT_EQ(outside, 0.0);
}

TEST(Chessboard, BlockMeanIsNearHalfDelta)
{
    const auto config = small_config(20.0f);
    const std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(config.geometry.block_count()), 1);
    const Imagef frame = data_frame(config, bits);
    const auto rect = config.geometry.block_rect(2, 1);
    const double m = inframe::img::mean_region(frame, rect.x0, rect.y0, rect.size, rect.size);
    // 3x3 Pixels: 4 of 9 odd -> mean = delta * 4/9.
    EXPECT_NEAR(m, 20.0 * 4.0 / 9.0, 1e-4);
}

TEST(Chessboard, SmoothingRemovesThePattern)
{
    // The decoder's premise: box blur at the Pixel scale flattens the
    // chessboard, leaving a large |original - smoothed| residual.
    const auto config = small_config(20.0f);
    const std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(config.geometry.block_count()), 1);
    const Imagef frame = data_frame(config, bits);
    const Imagef smoothed = inframe::img::box_blur(frame, config.geometry.pixel_size);
    const auto rect = config.geometry.block_rect(1, 1);
    const Imagef diff = inframe::img::abs_diff(frame, smoothed);
    const double residual =
        inframe::img::mean_region(diff, rect.x0, rect.y0, rect.size, rect.size);
    EXPECT_GT(residual, 5.0);
}

TEST(Chessboard, BitCountValidation)
{
    const auto config = small_config(20.0f);
    const std::vector<std::uint8_t> wrong(3, 0);
    const Imagef video(28, 16, 1, 100.0f);
    EXPECT_THROW(make_complementary_pair(config, video, wrong), Contract_violation);
}

TEST(Chessboard, AddBlockRequiresMatchingFrame)
{
    const auto config = small_config(20.0f);
    const Imagef wrong(10, 10, 1, 100.0f);
    EXPECT_THROW(make_complementary_pair(config, wrong, bits_with(config, 0, 0)), Contract_violation);
}

TEST(Chessboard, AccumulatesOnExistingContent)
{
    const auto config = small_config(15.0f);
    const Imagef video(28, 16, 1, 100.0f);
    const auto pair = make_complementary_pair(config, video, bits_with(config, 0, 0));
    const auto rect = config.geometry.block_rect(0, 0);
    EXPECT_EQ(pair.plus(rect.x0, rect.y0), 100.0f);
    EXPECT_EQ(pair.plus(rect.x0 + 2, rect.y0), 115.0f);
}

TEST(Chessboard, NegativeDeltaSubtracts)
{
    const auto config = small_config(15.0f);
    const Imagef video(28, 16, 1, 100.0f);
    const auto pair = make_complementary_pair(config, video, bits_with(config, 0, 0));
    const auto rect = config.geometry.block_rect(0, 0);
    EXPECT_EQ(pair.minus(rect.x0, rect.y0), 100.0f);
    EXPECT_EQ(pair.minus(rect.x0 + 2, rect.y0), 85.0f);
}

} // namespace
