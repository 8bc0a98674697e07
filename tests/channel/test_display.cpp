#include "channel/display.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::channel;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

TEST(Display, IdealPanelPassesFrameThrough)
{
    Display_params params;
    params.response_persistence = 0.0;
    params.black_level = 0.0;
    Display_model display(params);
    const Imagef frame(16, 9, 1, 100.0f);
    const Imagef out = display.emit(frame);
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 100.0f);
}

TEST(Display, BrightnessScalesOutput)
{
    Display_params params;
    params.brightness = 0.5;
    params.response_persistence = 0.0;
    params.black_level = 0.0;
    Display_model display(params);
    const Imagef out = display.emit(Imagef(8, 8, 1, 200.0f));
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 100.0f);
}

TEST(Display, BlackLevelLeaks)
{
    Display_params params;
    params.response_persistence = 0.0;
    params.black_level = 2.0;
    Display_model display(params);
    const Imagef out = display.emit(Imagef(8, 8, 1, 0.0f));
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Display, PixelResponseBlendsWithPreviousFrame)
{
    Display_params params;
    params.response_persistence = 0.25;
    params.black_level = 0.0;
    Display_model display(params);
    display.emit(Imagef(4, 4, 1, 0.0f));
    const Imagef out = display.emit(Imagef(4, 4, 1, 100.0f));
    // 25% of the old black persists.
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 75.0f);
}

TEST(Display, ResponseConvergesOverRefreshes)
{
    Display_params params;
    params.response_persistence = 0.5;
    params.black_level = 0.0;
    Display_model display(params);
    display.emit(Imagef(4, 4, 1, 0.0f));
    Imagef out(4, 4);
    for (int i = 0; i < 12; ++i) out = display.emit(Imagef(4, 4, 1, 100.0f));
    for (const float v : out.values()) EXPECT_NEAR(v, 100.0f, 0.1f);
}

TEST(Display, OutputIsClampedTo8BitRange)
{
    Display_params params;
    params.response_persistence = 0.0;
    params.black_level = 10.0;
    Display_model display(params);
    const Imagef out = display.emit(Imagef(4, 4, 1, 250.0f));
    for (const float v : out.values()) EXPECT_FLOAT_EQ(v, 255.0f);
}

TEST(Display, ParameterValidation)
{
    Display_params params;
    params.refresh_hz = 0.0;
    EXPECT_THROW(Display_model{params}, Contract_violation);
    params = {};
    params.brightness = 0.0;
    EXPECT_THROW(Display_model{params}, Contract_violation);
    params = {};
    params.response_persistence = 1.0;
    EXPECT_THROW(Display_model{params}, Contract_violation);
    params = {};
    params.black_level = -1.0;
    EXPECT_THROW(Display_model{params}, Contract_violation);
}

TEST(Display, RefreshPeriod)
{
    Display_model display(Display_params{});
    EXPECT_DOUBLE_EQ(display.refresh_period(), 1.0 / 120.0);
}

} // namespace
