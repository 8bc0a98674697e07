#include "baseline/barcode.hpp"

#include "channel/camera.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace {

using namespace inframe;
using namespace inframe::baseline;
using inframe::img::Imagef;
using inframe::util::Prng;

Barcode_config small_config()
{
    Barcode_config config;
    config.geometry = coding::paper_geometry(480, 270);
    return config;
}

TEST(Barcode, RenderLevels)
{
    const auto config = small_config();
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(config.geometry.block_count()), 0);
    bits[0] = 1;
    const Imagef frame = render_barcode(config, bits);
    const auto rect = config.geometry.block_rect(0, 0);
    EXPECT_FLOAT_EQ(frame(rect.x0, rect.y0), config.white_level);
    const auto rect1 = config.geometry.block_rect(1, 0);
    EXPECT_FLOAT_EQ(frame(rect1.x0, rect1.y0), config.black_level);
}

TEST(Barcode, PristineRoundTrip)
{
    const auto config = small_config();
    Prng prng(1);
    const auto bits = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
    const Imagef frame = render_barcode(config, bits);
    const auto decoded = decode_barcode(config, frame);
    EXPECT_EQ(decoded, bits);
}

TEST(Barcode, SurvivesDownscaledNoisyCapture)
{
    const auto config = small_config();
    Prng prng(2);
    const auto bits = prng.next_bits(static_cast<std::size_t>(config.geometry.block_count()));
    Imagef frame = render_barcode(config, bits);
    // Simulate capture: project onto a 2/3-size sensor and add noise.
    channel::Camera_params camera;
    camera.sensor_width = 320;
    camera.sensor_height = 180;
    camera.optical_blur_sigma = 0.0;
    camera.offset_x_px = 0.0;
    camera.offset_y_px = 0.0;
    Imagef capture = channel::Camera_optics(camera, 480, 270).to_sensor(frame);
    Prng noise(3);
    for (auto& v : capture.values()) v += static_cast<float>(noise.next_gaussian(0.0, 4.0));
    const auto decoded = decode_barcode(config, capture);
    EXPECT_EQ(decoded, bits);
}

TEST(Barcode, RawRateAccounting)
{
    const auto config = small_config();
    // 1500 blocks x 30 frames/s = 45 kbps raw: the capacity advantage of
    // an exclusive screen.
    EXPECT_NEAR(config.raw_bit_rate(), 45000.0, 1e-9);
}

TEST(Barcode, EndToEndOverCleanChannel)
{
    auto config = small_config();
    channel::Display_params display;
    display.response_persistence = 0.0;
    display.black_level = 0.0;
    channel::Camera_params camera;
    camera.fps = 30.0;
    camera.sensor_width = 480;
    camera.sensor_height = 270;
    camera.exposure_s = 1.0 / 120.0;
    camera.readout_s = 0.0;
    camera.optical_blur_sigma = 0.0;
    camera.offset_x_px = 0.0;
    camera.offset_y_px = 0.0;
    camera.shot_noise_scale = 0.0;
    camera.read_noise_sigma = 0.0;
    camera.quantize = false;
    const auto result = run_barcode_experiment(config, display, camera, 0.5);
    EXPECT_GT(result.barcode_frames, 5);
    EXPECT_LT(result.block_error_rate, 0.01);
    EXPECT_GT(result.goodput_kbps, 40.0);
}

TEST(Barcode, Validation)
{
    const auto config = small_config();
    const std::vector<std::uint8_t> wrong(3, 0);
    EXPECT_THROW(render_barcode(config, wrong), inframe::util::Contract_violation);

    // A duration must be finite and span at least one display frame, and
    // its display-frame count must fit std::int64_t.
    for (const double duration : {0.0, -1.0, 1e-4, std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN(), 1e300}) {
        try {
            run_barcode_experiment(config, {}, {}, duration);
            ADD_FAILURE() << "duration " << duration << " accepted";
        } catch (const inframe::util::Contract_violation& e) {
            EXPECT_NE(std::string(e.what()).find("duration_s"), std::string::npos) << e.what();
        }
    }
}

} // namespace
