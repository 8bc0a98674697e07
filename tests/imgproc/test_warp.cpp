#include "imgproc/warp.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/metrics.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>
#include <string>
#include <vector>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;

TEST(Homography, IdentityMapsPointsToThemselves)
{
    const Homography h;
    double x = 0.0;
    double y = 0.0;
    h.apply(13.5, -2.25, x, y);
    EXPECT_DOUBLE_EQ(x, 13.5);
    EXPECT_DOUBLE_EQ(y, -2.25);
}

TEST(Homography, TranslationAndScale)
{
    double x = 0.0;
    double y = 0.0;
    Homography::translation(3.0, -1.0).apply(1.0, 1.0, x, y);
    EXPECT_DOUBLE_EQ(x, 4.0);
    EXPECT_DOUBLE_EQ(y, 0.0);
    Homography::scale(2.0, 0.5).apply(4.0, 8.0, x, y);
    EXPECT_DOUBLE_EQ(x, 8.0);
    EXPECT_DOUBLE_EQ(y, 4.0);
    EXPECT_THROW(Homography::scale(0.0, 1.0), Contract_violation);
}

TEST(Homography, UnitSquareToQuadHitsTheCorners)
{
    const std::array<double, 8> quad = {10.0, 5.0, 90.0, 12.0, 80.0, 70.0, 5.0, 60.0};
    const auto h = Homography::unit_square_to_quad(quad);
    const double us[4][2] = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
    for (int i = 0; i < 4; ++i) {
        double x = 0.0;
        double y = 0.0;
        h.apply(us[i][0], us[i][1], x, y);
        EXPECT_NEAR(x, quad[static_cast<std::size_t>(2 * i)], 1e-9) << "corner " << i;
        EXPECT_NEAR(y, quad[static_cast<std::size_t>(2 * i + 1)], 1e-9) << "corner " << i;
    }
}

TEST(Homography, RectToQuadHitsTheCorners)
{
    const std::array<double, 8> quad = {2.0, 3.0, 61.0, 1.0, 63.0, 34.0, 0.0, 31.0};
    const auto h = Homography::rect_to_quad(64.0, 32.0, quad);
    double x = 0.0;
    double y = 0.0;
    h.apply(64.0, 32.0, x, y);
    EXPECT_NEAR(x, 63.0, 1e-9);
    EXPECT_NEAR(y, 34.0, 1e-9);
    h.apply(0.0, 32.0, x, y);
    EXPECT_NEAR(x, 0.0, 1e-9);
    EXPECT_NEAR(y, 31.0, 1e-9);
}

TEST(Homography, InverseRoundTrip)
{
    const std::array<double, 8> quad = {5.0, 2.0, 100.0, 8.0, 95.0, 55.0, 2.0, 50.0};
    const auto h = Homography::unit_square_to_quad(quad);
    const auto inv = h.inverse();
    for (double u = 0.1; u < 1.0; u += 0.27) {
        for (double v = 0.1; v < 1.0; v += 0.31) {
            double x = 0.0;
            double y = 0.0;
            h.apply(u, v, x, y);
            double back_u = 0.0;
            double back_v = 0.0;
            inv.apply(x, y, back_u, back_v);
            EXPECT_NEAR(back_u, u, 1e-9);
            EXPECT_NEAR(back_v, v, 1e-9);
        }
    }
}

TEST(Homography, CompositionAppliesRightToLeft)
{
    const auto t = Homography::translation(5.0, 0.0);
    const auto s = Homography::scale(2.0, 2.0);
    double x = 0.0;
    double y = 0.0;
    (t * s).apply(1.0, 1.0, x, y); // scale first, then translate
    EXPECT_DOUBLE_EQ(x, 7.0);
    EXPECT_DOUBLE_EQ(y, 2.0);
}

TEST(Homography, NonFiniteEntriesRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(Homography::translation(nan, 0.0), Contract_violation);
    EXPECT_THROW(Homography::translation(0.0, -inf), Contract_violation);
    EXPECT_THROW(Homography::scale(inf, 1.0), Contract_violation);
    EXPECT_THROW(Homography({1, 0, 0, 0, 1, 0, 0, 0, nan}), Contract_violation);
    EXPECT_THROW(Homography::rect_to_quad(64.0, 32.0, {0, 0, nan, 0, 64, 32, 0, 32}),
                 Contract_violation);
    // A width so small that 1 / w overflows.
    EXPECT_THROW(Homography::rect_to_quad(1e-320, 32.0, {0, 0, 64, 0, 64, 32, 0, 32}),
                 Contract_violation);
    // Finite factors whose product or inverse overflows.
    const auto big = Homography::scale(1e200, 1e200);
    EXPECT_THROW(big * big, Contract_violation);
    EXPECT_THROW(big.inverse(), Contract_violation);
}

TEST(Homography, CollinearQuadRejected)
{
    const std::array<double, 8> degenerate = {0, 0, 1, 1, 2, 2, 3, 3};
    EXPECT_THROW(Homography::unit_square_to_quad(degenerate), Contract_violation);
}

TEST(SampleBilinear, InterpolatesBetweenPixels)
{
    Imagef a(2, 1);
    a(0, 0) = 10.0f;
    a(1, 0) = 20.0f;
    EXPECT_NEAR(sample_bilinear(a, 0.5f, 0.0f), 15.0f, 1e-4f);
    EXPECT_NEAR(sample_bilinear(a, 0.25f, 0.0f), 12.5f, 1e-4f);
}

TEST(SampleBilinear, ClampsOutside)
{
    Imagef a(2, 2);
    a(0, 0) = 1.0f;
    a(1, 1) = 9.0f;
    EXPECT_NEAR(sample_bilinear(a, -3.0f, -3.0f), 1.0f, 1e-4f);
    EXPECT_NEAR(sample_bilinear(a, 10.0f, 10.0f), 9.0f, 1e-4f);
}

TEST(WarpPerspective, IdentityIsACopy)
{
    const Imagef board = checkerboard(32, 24, 4, 10.0f, 200.0f);
    const Imagef out = warp_perspective(board, Homography::identity(), 32, 24);
    // Bilinear sampling at exact integer coordinates reproduces values.
    EXPECT_LT(mae(out, board), 1e-4);
}

TEST(WarpPerspective, TranslationShiftsContent)
{
    Imagef image(16, 16, 1, 0.0f);
    fill_rect(image, 4, 4, 2, 2, 100.0f);
    // dst_to_src: destination (x, y) samples source at (x - 3, y).
    const Imagef out =
        warp_perspective(image, Homography::translation(-3.0, 0.0), 16, 16);
    EXPECT_NEAR(out(7, 4), 100.0f, 1e-3f);
    EXPECT_NEAR(out(4, 4), 0.0f, 1e-3f);
}

TEST(WarpPerspective, KeystoneRoundTripPreservesContent)
{
    // Warp a test card through a mild keystone and back: interior content
    // must survive (two bilinear resamplings cost a little contrast).
    const Imagef card = checkerboard(96, 54, 6, 40.0f, 210.0f);
    const std::array<double, 8> quad = {6.0, 2.0, 90.0, 4.0, 94.0, 52.0, 2.0, 50.0};
    const auto screen_to_quad = Homography::rect_to_quad(96.0, 54.0, quad);
    const Imagef warped = warp_perspective(card, screen_to_quad.inverse(), 96, 54);
    const Imagef restored = warp_perspective(warped, screen_to_quad, 96, 54);
    const auto center_original = card.crop(24, 14, 48, 26);
    const auto center_restored = restored.crop(24, 14, 48, 26);
    EXPECT_GT(psnr(center_original, center_restored), 18.0);
}

// The per-pixel loop warp_perspective ran for every homography before it
// gained a per-axis path for axis-aligned ones: a point apply and a clamped
// bilinear sample per destination pixel.
Imagef warp_per_pixel(const Imagef& src, const Homography& dst_to_src, int out_w, int out_h)
{
    Imagef out(out_w, out_h, src.channels());
    for (int y = 0; y < out_h; ++y) {
        for (int x = 0; x < out_w; ++x) {
            double sx = 0.0;
            double sy = 0.0;
            dst_to_src.apply(static_cast<double>(x), static_cast<double>(y), sx, sy);
            for (int c = 0; c < src.channels(); ++c) {
                out(x, y, c) =
                    sample_bilinear(src, static_cast<float>(sx), static_cast<float>(sy), c);
            }
        }
    }
    return out;
}

TEST(WarpPerspective, AxisAlignedPathMatchesProjectiveLoop)
{
    struct Case {
        std::string name;
        Homography dst_to_src;
        int out_w;
        int out_h;
    };
    std::vector<Case> cases = {
        {"identity", Homography::identity(), 61, 37},
        {"integer shift", Homography::translation(3.0, -2.0), 61, 37},
        {"clamped +6", Homography::translation(6.0, 6.0), 61, 37},
        {"clamped -6", Homography::translation(-6.0, -6.0), 61, 37},
        {"beyond the edges", Homography::translation(-75.0, 41.5), 61, 37},
        {"1e-9 px", Homography::translation(1e-9, -1e-9), 61, 37},
        {"half pixel", Homography::translation(0.5, -0.5), 61, 37},
        {"quarter pixels", Homography::translation(2.25, -3.75), 61, 37},
        {"scale and translate", Homography::translation(1.3, -0.7) * Homography::scale(0.61, 1.7),
         83, 29},
        {"mirror", Homography::translation(60.0, 0.25) * Homography::scale(-1.0, 1.0), 61, 37},
        {"w != 1", Homography({2.0, 0.0, 3.0, 0.0, 1.5, -1.0, 0.0, 0.0, 4.0}), 97, 55},
    };
    inframe::util::Prng prng(17);
    for (int i = 0; i < 24; ++i) {
        const double dx = prng.next_gaussian(0.0, 2.0);
        const double dy = prng.next_gaussian(0.0, 2.0);
        cases.push_back({"random shift " + std::to_string(i), Homography::translation(dx, dy),
                         61, 37});
    }

    // 1 and 3 channels; the single-pixel source clamps every tap to one
    // pixel.
    std::vector<Imagef> sources;
    for (const auto& [w, h] : {std::pair{61, 37}, std::pair{1, 1}}) {
        for (const int channels : {1, 3}) {
            Imagef src(w, h, channels);
            for (auto& v : src.values()) v = static_cast<float>(prng.next_double(-20.0, 255.0));
            sources.push_back(std::move(src));
        }
    }
    for (const auto& src : sources) {
        const std::string shape = std::to_string(src.width()) + "x" + std::to_string(src.height())
                                  + "x" + std::to_string(src.channels());
        for (const auto& c : cases) {
            const Imagef expected = warp_per_pixel(src, c.dst_to_src, c.out_w, c.out_h);
            for (const int threads : {1, 3, 4}) {
                const inframe::util::Parallel_scope scope(threads);
                const Imagef got = warp_perspective(src, c.dst_to_src, c.out_w, c.out_h);
                ASSERT_TRUE(got.same_shape(expected)) << c.name;
                EXPECT_EQ(0, std::memcmp(got.values().data(), expected.values().data(),
                                         expected.value_count() * sizeof(float)))
                    << c.name << ", " << shape << " source, " << threads << " threads";
            }
        }
    }
}

TEST(WarpPerspective, OutputSizeValidation)
{
    const Imagef image(8, 8);
    EXPECT_THROW(warp_perspective(image, Homography::identity(), 0, 8), Contract_violation);
}

} // namespace
