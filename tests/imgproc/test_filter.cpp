#include "imgproc/filter.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "simd/simd.hpp"
#include "util/contract.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

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

std::uint32_t image_crc(const Imagef& image)
{
    const auto bytes = std::as_bytes(image.values());
    return inframe::util::crc32(std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                          bytes.size()));
}

// Pins box_blur's output bit for bit: the horizontal pass's double window
// and float subtract, and the vertical pass's per-row double sums stored as
// float(sum) * norm. The CRC32s cover the raw float bytes and hold at every
// SIMD level.
TEST(BoxBlur, OutputMatchesFrozenCrcs)
{
    struct Frozen {
        int width, height, channels, radius_x, radius_y;
        std::uint32_t crc;
    };
    constexpr Frozen frozen[] = {
        {1280, 720, 1, 1, 1, 0x8fb407d7u},
        {1280, 720, 1, 3, 3, 0xd168d722u},
        {97, 55, 3, 3, 3, 0x57a83413u},
        {97, 55, 3, 1, 4, 0xa83ec287u},
    };
    const inframe::simd::Level before = inframe::simd::active_level();
    for (const Frozen& f : frozen) {
        Prng prng(7);
        Imagef src(f.width, f.height, f.channels);
        for (auto& v : src.values()) v = static_cast<float>(prng.next_double(0, 255));
        for (const inframe::simd::Level level : inframe::simd::available_levels()) {
            inframe::simd::set_active_level(level);
            const std::uint32_t crc = image_crc(box_blur(src, f.radius_x, f.radius_y));
            EXPECT_EQ(crc, f.crc) << f.width << "x" << f.height << "x" << f.channels
                                  << " radii " << f.radius_x << "," << f.radius_y << " at "
                                  << inframe::simd::to_string(level) << ": got 0x" << std::hex
                                  << crc;
        }
    }
    inframe::simd::set_active_level(before);
}

TEST(BoxBlur, NegativeRadiusThrows)
{
    const Imagef a(4, 4);
    EXPECT_THROW(box_blur(a, -1), Contract_violation);
}

} // namespace
