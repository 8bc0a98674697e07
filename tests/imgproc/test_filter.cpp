#include "imgproc/filter.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;
using inframe::util::Prng;

TEST(BoxBlur, RadiusZeroIsIdentity)
{
    Imagef a(4, 4);
    Prng prng(1);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = box_blur(a, 0);
    for (std::size_t i = 0; i < a.values().size(); ++i) {
        EXPECT_FLOAT_EQ(out.values()[i], a.values()[i]);
    }
}

TEST(BoxBlur, ConstantImageIsInvariant)
{
    const Imagef a(16, 12, 1, 42.0f);
    const Imagef out = box_blur(a, 3);
    for (const float v : out.values()) EXPECT_NEAR(v, 42.0f, 1e-4f);
}

TEST(BoxBlur, PreservesMeanApproximately)
{
    Prng prng(2);
    Imagef a(32, 32);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = box_blur(a, 2);
    EXPECT_NEAR(mean(out), mean(a), 2.0);
}

TEST(BoxBlur, FlattensCheckerboardCompletely)
{
    // A 1-pixel checkerboard averaged over any odd window with equal counts
    // of both phases lands on the midpoint. Radius 1 (3x3 window) leaves a
    // small bias, but the interior is near the mean.
    const Imagef board = checkerboard(32, 32, 1, 0.0f, 100.0f);
    const Imagef out = box_blur(board, 2); // 5x5 window: 13 vs 12 cells
    const double interior = mean_region(out, 8, 8, 16, 16);
    EXPECT_NEAR(interior, 50.0, 3.0);
}

TEST(BoxBlur, MatchesBruteForceInsideImage)
{
    Prng prng(3);
    Imagef a(9, 7);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const int radius = 1;
    const Imagef fast = box_blur(a, radius);
    for (int y = radius; y < a.height() - radius; ++y) {
        for (int x = radius; x < a.width() - radius; ++x) {
            double sum = 0.0;
            for (int dy = -radius; dy <= radius; ++dy) {
                for (int dx = -radius; dx <= radius; ++dx) sum += a(x + dx, y + dy);
            }
            EXPECT_NEAR(fast(x, y), sum / 9.0, 1e-3);
        }
    }
}

TEST(BoxBlur, AnisotropicRadii)
{
    // Horizontal-only blur must not mix rows.
    Imagef a(8, 2, 1, 0.0f);
    for (int x = 0; x < 8; ++x) a(x, 1) = 80.0f;
    const Imagef out = box_blur(a, 2, 0);
    for (int x = 0; x < 8; ++x) {
        EXPECT_NEAR(out(x, 0), 0.0f, 1e-4f);
        EXPECT_NEAR(out(x, 1), 80.0f, 1e-4f);
    }
}

TEST(BoxBlur, NegativeRadiusThrows)
{
    const Imagef a(4, 4);
    EXPECT_THROW(box_blur(a, -1), Contract_violation);
}

} // namespace
