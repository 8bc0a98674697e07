#include "core/link_runner.hpp"

#include "util/contract.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe;
using namespace inframe::core;

// Small, fast rig: 480x270 screen, same-resolution sensor, clean optics.
Link_experiment_config clean_rig(std::shared_ptr<const video::Video_source> source)
{
    Link_experiment_config config;
    config.video = std::move(source);
    config.inframe = paper_config(480, 270);
    config.inframe.tau = 8;
    config.camera.sensor_width = 480;
    config.camera.sensor_height = 270;
    config.camera.fps = 30.0;
    config.camera.exposure_s = 1.0 / 120.0;
    config.camera.readout_s = 0.0;
    config.camera.optical_blur_sigma = 0.0;
    config.camera.offset_x_px = 0.0;
    config.camera.offset_y_px = 0.0;
    config.camera.shot_noise_scale = 0.0;
    config.camera.read_noise_sigma = 0.0;
    config.camera.quantize = false;
    config.display.response_persistence = 0.0;
    config.display.black_level = 0.0;
    config.auto_exposure = false;
    config.duration_s = 0.5;
    return config;
}

TEST(LinkRunner, CleanChannelIsLossless)
{
    const auto config = clean_rig(video::make_dark_gray_video(480, 270));
    const auto result = run_link_experiment(config);
    EXPECT_GT(result.data_frames, 0);
    EXPECT_DOUBLE_EQ(result.available_gob_ratio, 1.0);
    EXPECT_DOUBLE_EQ(result.gob_error_rate, 0.0);
    EXPECT_DOUBLE_EQ(result.block_error_rate, 0.0);
    EXPECT_DOUBLE_EQ(result.trusted_bit_error_rate, 0.0);
    EXPECT_NEAR(result.goodput_kbps, result.raw_rate_kbps, 0.01);
}

TEST(LinkRunner, RawRateMatchesConfig)
{
    const auto config = clean_rig(video::make_dark_gray_video(480, 270));
    const auto result = run_link_experiment(config);
    // 1125 bits x 120/8 = 16.875 kbps.
    EXPECT_NEAR(result.raw_rate_kbps, 16.875, 1e-9);
}

TEST(LinkRunner, SensorNoiseDegradesGracefullyNotWrongly)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.camera.shot_noise_scale = 0.3;
    config.camera.read_noise_sigma = 2.0;
    config.camera.quantize = true;
    const auto result = run_link_experiment(config);
    // Noise may cost availability, but trusted bits stay correct.
    EXPECT_GT(result.available_gob_ratio, 0.5);
    EXPECT_LT(result.trusted_bit_error_rate, 0.01);
}

TEST(LinkRunner, LongExposureCancelsThePattern)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    // Exposure spanning a complete +D/-D pair: data cancels, nothing
    // decodes (but nothing decodes *wrongly* either).
    config.camera.exposure_s = 2.0 / 120.0;
    const auto result = run_link_experiment(config);
    EXPECT_LT(result.available_gob_ratio, 0.05);
    EXPECT_LT(result.block_error_rate, 0.05);
}

TEST(LinkRunner, SmallerTauRaisesRawAndGoodput)
{
    auto fast = clean_rig(video::make_dark_gray_video(480, 270));
    fast.inframe.tau = 8;
    auto slow = clean_rig(video::make_dark_gray_video(480, 270));
    slow.inframe.tau = 16;
    const auto fast_result = run_link_experiment(fast);
    const auto slow_result = run_link_experiment(slow);
    EXPECT_NEAR(fast_result.goodput_kbps / slow_result.goodput_kbps, 2.0, 0.2);
}

TEST(LinkRunner, ValidatesInputs)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.video = nullptr;
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);

    config = clean_rig(video::make_dark_gray_video(480, 270));
    config.duration_s = 0.0;
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);

    config = clean_rig(video::make_dark_gray_video(960, 540)); // size mismatch
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);

    // A valid 60 Hz InFrame config on the default 120 Hz panel would run
    // the link on one clock and group data frames on the other: the
    // decoder reads garbage while reporting every GOB available.
    config = clean_rig(video::make_dark_gray_video(480, 270));
    config.inframe.display_fps = 60.0;
    ASSERT_NO_THROW(config.inframe.validate());
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);
    // The same config on a matching 60 Hz panel runs.
    config.display.refresh_hz = 60.0;
    config.duration_s = 0.25;
    EXPECT_NO_THROW(run_link_experiment(config));
}

TEST(LinkRunner, DeterministicForFixedSeeds)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.camera.shot_noise_scale = 0.2;
    const auto a = run_link_experiment(config);
    const auto b = run_link_experiment(config);
    EXPECT_DOUBLE_EQ(a.goodput_kbps, b.goodput_kbps);
    EXPECT_DOUBLE_EQ(a.available_gob_ratio, b.available_gob_ratio);
}

TEST(FlickerRunner, InframeEncodingIsNearInvisible)
{
    Flicker_experiment_config config;
    config.video = video::make_dark_gray_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.inframe.tau = 12;
    config.duration_s = 1.0;
    config.observers = 4;
    config.options.max_sites = 256;
    const auto result = run_flicker_experiment(config);
    ASSERT_EQ(result.scores.size(), 4u);
    EXPECT_LT(result.mean_score, 1.5);
}

TEST(FlickerRunner, CustomProducerOverridesEncoder)
{
    // A producer that flashes the whole screen at 30 Hz must score far
    // worse than the InFrame encoder on the same video.
    Flicker_experiment_config config;
    config.video = video::make_dark_gray_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.duration_s = 1.0;
    config.observers = 4;
    config.options.max_sites = 256;
    config.frame_producer = [](const img::Imagef& video_frame, std::int64_t j) {
        img::Imagef out = video_frame;
        const float offset = (j % 4 < 2) ? 25.0f : -25.0f;
        out.transform([&](float v) { return std::clamp(v + offset, 0.0f, 255.0f); });
        return out;
    };
    const auto flashing = run_flicker_experiment(config);
    EXPECT_GT(flashing.mean_score, 2.0);
}

TEST(FlickerRunner, Validation)
{
    Flicker_experiment_config config;
    config.video = nullptr;
    EXPECT_THROW(run_flicker_experiment(config), util::Contract_violation);
}

} // namespace
