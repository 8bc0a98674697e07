#include "imgproc/draw.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;

TEST(Draw, FillRectClipsToImage)
{
    Imagef a(4, 4, 1, 0.0f);
    fill_rect(a, 2, 2, 10, 10, 50.0f);
    EXPECT_EQ(a(3, 3), 50.0f);
    EXPECT_EQ(a(1, 1), 0.0f);
    fill_rect(a, -5, -5, 6, 6, 7.0f);
    EXPECT_EQ(a(0, 0), 7.0f);
}

TEST(Draw, FillRectRgbRequiresThreeChannels)
{
    Imagef gray(4, 4, 1);
    EXPECT_THROW(fill_rect_rgb(gray, 0, 0, 2, 2, 1, 2, 3), Contract_violation);
    Imagef rgb(4, 4, 3);
    fill_rect_rgb(rgb, 0, 0, 2, 2, 10.0f, 20.0f, 30.0f);
    EXPECT_EQ(rgb(1, 1, 0), 10.0f);
    EXPECT_EQ(rgb(1, 1, 1), 20.0f);
    EXPECT_EQ(rgb(1, 1, 2), 30.0f);
    EXPECT_EQ(rgb(3, 3, 0), 0.0f);
}

TEST(Draw, FillDiscRadiusAndClipping)
{
    Imagef a(9, 9, 1, 0.0f);
    fill_disc(a, 4.0f, 4.0f, 2.0f, 90.0f);
    EXPECT_EQ(a(4, 4), 90.0f);
    EXPECT_EQ(a(6, 4), 90.0f);
    EXPECT_EQ(a(7, 4), 0.0f);
    EXPECT_EQ(a(0, 0), 0.0f);
    EXPECT_THROW(fill_disc(a, 0, 0, -1.0f, 1.0f), Contract_violation);
}

TEST(Draw, CheckerboardAlternates)
{
    const Imagef board = checkerboard(4, 4, 1, 0.0f, 100.0f);
    EXPECT_EQ(board(0, 0), 0.0f);
    EXPECT_EQ(board(1, 0), 100.0f);
    EXPECT_EQ(board(0, 1), 100.0f);
    EXPECT_EQ(board(1, 1), 0.0f);
}

TEST(Draw, CheckerboardPhaseInverts)
{
    const Imagef a = checkerboard(4, 4, 1, 0.0f, 1.0f, 0);
    const Imagef b = checkerboard(4, 4, 1, 0.0f, 1.0f, 1);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) EXPECT_NE(a(x, y), b(x, y));
    }
}

TEST(Draw, CheckerboardCellSize)
{
    const Imagef board = checkerboard(8, 8, 2, 0.0f, 1.0f);
    EXPECT_EQ(board(0, 0), board(1, 1));
    EXPECT_NE(board(0, 0), board(2, 0));
    EXPECT_THROW(checkerboard(4, 4, 0, 0.0f, 1.0f), Contract_violation);
}

TEST(Draw, CheckerboardMeanIsMidpoint)
{
    const Imagef board = checkerboard(16, 16, 1, 0.0f, 100.0f);
    EXPECT_NEAR(mean(board), 50.0, 1e-3);
}

TEST(Draw, HorizontalGradientEndpoints)
{
    const Imagef g = horizontal_gradient(5, 2, 10.0f, 50.0f);
    EXPECT_FLOAT_EQ(g(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(g(4, 1), 50.0f);
    EXPECT_FLOAT_EQ(g(2, 0), 30.0f);
}

TEST(Draw, TextMarksPixels)
{
    Imagef a(64, 16, 1, 0.0f);
    draw_text(a, 1, 1, "A1", 200.0f);
    double marked = 0.0;
    for (const float v : a.values()) marked += v > 0.0f;
    EXPECT_GT(marked, 10.0); // both glyphs rendered something
}

TEST(Draw, TextScale)
{
    Imagef small(64, 16, 1, 0.0f);
    Imagef big(64, 32, 1, 0.0f);
    draw_text(small, 0, 0, "8", 1.0f, 1);
    draw_text(big, 0, 0, "8", 1.0f, 2);
    double small_count = 0.0;
    double big_count = 0.0;
    for (const float v : small.values()) small_count += v > 0.0f;
    for (const float v : big.values()) big_count += v > 0.0f;
    EXPECT_NEAR(big_count, 4.0 * small_count, 1e-3);
}

TEST(Draw, TextRejectsBadArgs)
{
    Imagef a(8, 8);
    EXPECT_THROW(draw_text(a, 0, 0, nullptr, 1.0f), Contract_violation);
    EXPECT_THROW(draw_text(a, 0, 0, "X", 1.0f, 0), Contract_violation);
}

} // namespace
