#include "imgproc/metrics.hpp"

#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;
using inframe::util::Prng;

TEST(Metrics, MaeOfIdenticalImagesIsZero)
{
    const Imagef a(8, 8, 1, 20.0f);
    EXPECT_DOUBLE_EQ(mae(a, a), 0.0);
}

TEST(Metrics, MaeOfConstantOffset)
{
    const Imagef a(8, 8, 1, 20.0f);
    const Imagef b(8, 8, 1, 25.0f);
    EXPECT_DOUBLE_EQ(mae(a, b), 5.0);
}

TEST(Metrics, MseOfConstantOffset)
{
    const Imagef a(8, 8, 1, 20.0f);
    const Imagef b(8, 8, 1, 26.0f);
    EXPECT_DOUBLE_EQ(mse(a, b), 36.0);
}

TEST(Metrics, ShapeMismatchThrows)
{
    const Imagef a(8, 8);
    const Imagef b(9, 8);
    EXPECT_THROW(mae(a, b), Contract_violation);
    EXPECT_THROW(mse(a, b), Contract_violation);
}

TEST(Metrics, PsnrIdenticalIsInfinite)
{
    const Imagef a(8, 8, 1, 100.0f);
    EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Metrics, PsnrKnownValue)
{
    const Imagef a(8, 8, 1, 0.0f);
    const Imagef b(8, 8, 1, 255.0f);
    // MSE = 255^2 -> PSNR = 0 dB.
    EXPECT_NEAR(psnr(a, b), 0.0, 1e-9);
}

TEST(Metrics, PsnrOrdersDegradations)
{
    Prng prng(31);
    Imagef base(32, 32);
    for (auto& v : base.values()) v = static_cast<float>(prng.next_double(0, 255));
    Imagef light = base;
    Imagef heavy = base;
    light.transform([&](float v) { return v + 2.0f; });
    heavy.transform([&](float v) { return v + 20.0f; });
    EXPECT_GT(psnr(base, light), psnr(base, heavy));
}

} // namespace
