#include "imgproc/image.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;

TEST(Image, ConstructionAndFill)
{
    Imagef image(4, 3, 1, 7.0f);
    EXPECT_EQ(image.width(), 4);
    EXPECT_EQ(image.height(), 3);
    EXPECT_EQ(image.channels(), 1);
    EXPECT_EQ(image.pixel_count(), 12u);
    for (const float v : image.values()) EXPECT_EQ(v, 7.0f);
}

TEST(Image, InvalidConstruction)
{
    EXPECT_THROW(Imagef(0, 3), Contract_violation);
    EXPECT_THROW(Imagef(3, -1), Contract_violation);
    EXPECT_THROW(Imagef(3, 3, 2), Contract_violation);
}

TEST(Image, AtBoundsChecking)
{
    Imagef image(2, 2);
    EXPECT_NO_THROW(image.at(1, 1));
    EXPECT_THROW(image.at(2, 0), Contract_violation);
    EXPECT_THROW(image.at(0, 2), Contract_violation);
    EXPECT_THROW(image.at(-1, 0), Contract_violation);
    EXPECT_THROW(image.at(0, 0, 1), Contract_violation);
}

TEST(Image, InterleavedChannelLayout)
{
    Imagef image(2, 1, 3);
    image(0, 0, 0) = 1.0f;
    image(0, 0, 1) = 2.0f;
    image(0, 0, 2) = 3.0f;
    image(1, 0, 0) = 4.0f;
    const auto values = image.values();
    EXPECT_EQ(values[0], 1.0f);
    EXPECT_EQ(values[1], 2.0f);
    EXPECT_EQ(values[2], 3.0f);
    EXPECT_EQ(values[3], 4.0f);
}

TEST(Image, ClampedSampling)
{
    Imagef image(2, 2);
    image(0, 0) = 1.0f;
    image(1, 0) = 2.0f;
    image(0, 1) = 3.0f;
    image(1, 1) = 4.0f;
    EXPECT_EQ(image.at_clamped(-5, -5), 1.0f);
    EXPECT_EQ(image.at_clamped(9, 0), 2.0f);
    EXPECT_EQ(image.at_clamped(0, 9), 3.0f);
    EXPECT_EQ(image.at_clamped(9, 9), 4.0f);
}

TEST(Image, RowSpanWritesThrough)
{
    Imagef image(3, 2);
    auto row = image.row(1);
    row[0] = 5.0f;
    EXPECT_EQ(image(0, 1), 5.0f);
    EXPECT_THROW(image.row(2), Contract_violation);
}

TEST(Image, CropCopiesRegion)
{
    Imagef image(4, 4);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) image(x, y) = static_cast<float>(y * 4 + x);
    }
    const Imagef crop = image.crop(1, 2, 2, 2);
    EXPECT_EQ(crop.width(), 2);
    EXPECT_EQ(crop.height(), 2);
    EXPECT_EQ(crop(0, 0), 9.0f);
    EXPECT_EQ(crop(1, 1), 14.0f);
}

TEST(Image, CropValidatesBounds)
{
    Imagef image(4, 4);
    EXPECT_THROW(image.crop(3, 3, 2, 2), Contract_violation);
    EXPECT_THROW(image.crop(0, 0, 0, 1), Contract_violation);
}

TEST(Image, TransformAppliesEverywhere)
{
    Imagef image(2, 2, 1, 1.0f);
    image.transform([](float v) { return v * 3.0f; });
    for (const float v : image.values()) EXPECT_EQ(v, 3.0f);
}

TEST(Image, U8FloatRoundTrip)
{
    Image8 original(3, 2, 1);
    std::uint8_t next = 0;
    for (auto& v : original.values()) v = next += 40;
    const Imagef wide = to_float(original);
    const Image8 back = to_u8(wide);
    EXPECT_EQ(back.values().size(), original.values().size());
    for (std::size_t i = 0; i < back.values().size(); ++i) {
        EXPECT_EQ(back.values()[i], original.values()[i]);
    }
}

TEST(Image, ToU8ClampsAndRounds)
{
    Imagef image(7, 1);
    image(0, 0) = -10.0f;
    image(1, 0) = 300.0f;
    image(2, 0) = 127.6f;
    // Exact .5 ties round away from zero; just below a tie rounds down.
    image(3, 0) = 0.5f;
    image(4, 0) = 127.5f;
    image(5, 0) = 254.5f;
    image(6, 0) = 254.49998f;
    const Image8 quantized = to_u8(image);
    EXPECT_EQ(quantized(0, 0), 0);
    EXPECT_EQ(quantized(1, 0), 255);
    EXPECT_EQ(quantized(2, 0), 128);
    EXPECT_EQ(quantized(3, 0), 1);
    EXPECT_EQ(quantized(4, 0), 128);
    EXPECT_EQ(quantized(5, 0), 255);
    EXPECT_EQ(quantized(6, 0), 254);
}

TEST(Image, ToGrayUsesRec601Weights)
{
    Imagef rgb(1, 1, 3);
    rgb(0, 0, 0) = 255.0f;
    rgb(0, 0, 1) = 0.0f;
    rgb(0, 0, 2) = 0.0f;
    const Imagef gray = to_gray(rgb);
    EXPECT_EQ(gray.channels(), 1);
    EXPECT_NEAR(gray(0, 0), 0.299f * 255.0f, 1e-3f);
}

TEST(Image, ToGrayIdentityForGrayscale)
{
    Imagef gray(2, 2, 1, 9.0f);
    const Imagef out = to_gray(gray);
    EXPECT_TRUE(out.same_shape(gray));
    EXPECT_EQ(out(1, 1), 9.0f);
}

} // namespace
