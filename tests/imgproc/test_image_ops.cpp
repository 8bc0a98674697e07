#include "imgproc/image_ops.hpp"

#include "simd/simd.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;

Imagef make_ramp(int w, int h)
{
    Imagef image(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) image(x, y) = static_cast<float>(y * w + x);
    }
    return image;
}

TEST(ImageOps, AddSubtractInverse)
{
    const Imagef a = make_ramp(5, 4);
    Imagef b(5, 4, 1, 3.0f);
    const Imagef sum = add(a, b);
    const Imagef restored = add(sum, affine(b, -1.0f, 0.0f));
    for (std::size_t i = 0; i < a.values().size(); ++i) {
        EXPECT_FLOAT_EQ(restored.values()[i], a.values()[i]);
    }
}

TEST(ImageOps, ShapeMismatchThrows)
{
    const Imagef a(2, 2);
    const Imagef b(3, 2);
    EXPECT_THROW(add(a, b), Contract_violation);
    EXPECT_THROW(abs_diff(a, b), Contract_violation);
}

TEST(ImageOps, AbsDiffIsSymmetric)
{
    const Imagef a = make_ramp(4, 4);
    Imagef b = make_ramp(4, 4);
    b.transform([](float v) { return v * 2.0f; });
    const Imagef d1 = abs_diff(a, b);
    const Imagef d2 = abs_diff(b, a);
    for (std::size_t i = 0; i < d1.values().size(); ++i) {
        EXPECT_FLOAT_EQ(d1.values()[i], d2.values()[i]);
        EXPECT_GE(d1.values()[i], 0.0f);
    }
}

TEST(ImageOps, AffineScaleOffset)
{
    Imagef a(2, 2, 1, 10.0f);
    const Imagef out = affine(a, 2.0f, 5.0f);
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 25.0f);
}

TEST(ImageOps, ClampBounds)
{
    Imagef a(3, 1);
    a(0, 0) = -4.0f;
    a(1, 0) = 100.0f;
    a(2, 0) = 400.0f;
    clamp(a, 0.0f, 255.0f);
    EXPECT_EQ(a(0, 0), 0.0f);
    EXPECT_EQ(a(1, 0), 100.0f);
    EXPECT_EQ(a(2, 0), 255.0f);
    EXPECT_THROW(clamp(a, 1.0f, 0.0f), Contract_violation);
}

TEST(ImageOps, MeanOfRamp)
{
    const Imagef a = make_ramp(3, 3); // values 0..8
    EXPECT_DOUBLE_EQ(mean(a), 4.0);
}

TEST(ImageOps, MeanRegion)
{
    const Imagef a = make_ramp(4, 4);
    // Region covering values 5, 6, 9, 10.
    EXPECT_DOUBLE_EQ(mean_region(a, 1, 1, 2, 2), 7.5);
    EXPECT_THROW(mean_region(a, 3, 3, 2, 2), Contract_violation);
}

// Pins the summation order of a 1-channel mean_region: lane i % 8 of a
// double accumulator takes element i of the row, and the lanes merge as
// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). The rows mix magnitudes from 2^-40 to
// 2^61, so that order gives a different sum than a sequential one (checked
// per case), and the frozen bits hold at every SIMD level.
TEST(ImageOps, MeanRegionMatchesFrozenEightLaneBits)
{
    Imagef image(61, 6);
    inframe::util::Prng prng(11);
    for (auto& v : image.values()) {
        const double sign = prng.next_double() < 0.5 ? -1.0 : 1.0;
        const int exponent = static_cast<int>(prng.next_int(-40, 60));
        v = static_cast<float>(sign * std::ldexp(1.0 + prng.next_double(), exponent));
    }
    struct Frozen {
        int x0, y0, w, h;
        std::uint64_t bits;
    };
    constexpr Frozen frozen[] = {
        {3, 0, 53, 1, 0x434aeaa2649cc3e9u}, {3, 1, 53, 1, 0xc33ba7c27e43f1efu},
        {0, 3, 61, 1, 0xc36786185f18b2c0u}, {7, 3, 9, 1, 0xc314f16818e38e3bu},
        {2, 1, 11, 1, 0xc31340c05a32b785u}, {1, 2, 16, 1, 0xc337dc5b40fb283fu},
        {5, 1, 40, 4, 0xc32cc2567a0a3040u},
    };
    const inframe::simd::Level before = inframe::simd::active_level();
    for (const Frozen& f : frozen) {
        double sequential = 0.0;
        for (int y = f.y0; y < f.y0 + f.h; ++y) {
            for (int x = f.x0; x < f.x0 + f.w; ++x) sequential += image(x, y);
        }
        sequential /= static_cast<double>(f.w) * static_cast<double>(f.h);
        for (const inframe::simd::Level level : inframe::simd::available_levels()) {
            inframe::simd::set_active_level(level);
            const double got = mean_region(image, f.x0, f.y0, f.w, f.h);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got), f.bits)
                << "region " << f.x0 << "," << f.y0 << " " << f.w << "x" << f.h << " at "
                << inframe::simd::to_string(level) << ": got 0x" << std::hex
                << std::bit_cast<std::uint64_t>(got);
            EXPECT_NE(got, sequential) << "case does not tell the 8-lane order apart";
        }
    }
    inframe::simd::set_active_level(before);
}

TEST(ImageOps, MeanAbsRegion)
{
    Imagef a(2, 2);
    a(0, 0) = -2.0f;
    a(1, 0) = 2.0f;
    a(0, 1) = -4.0f;
    a(1, 1) = 4.0f;
    EXPECT_DOUBLE_EQ(mean_abs_region(a, 0, 0, 2, 2), 3.0);
}

TEST(ImageOps, MinMax)
{
    Imagef a = make_ramp(4, 2);
    a(2, 1) = -9.0f;
    const auto [lo, hi] = min_max(a);
    EXPECT_EQ(lo, -9.0f);
    EXPECT_EQ(hi, 7.0f);
}

} // namespace
