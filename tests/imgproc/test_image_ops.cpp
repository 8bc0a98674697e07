#include "imgproc/image_ops.hpp"

#include "util/contract.hpp"

#include <gtest/gtest.h>

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
