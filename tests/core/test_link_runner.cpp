#include "core/link_runner.hpp"

#include "util/contract.hpp"
#include "video/source.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

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

// Expects `run` to throw a Contract_violation that names duration_s (not
// a later error from a bad frame count).
template <typename Run>
void expect_duration_rejected(Run run, double duration)
{
    try {
        run();
        ADD_FAILURE() << "duration " << duration << " accepted";
    } catch (const util::Contract_violation& e) {
        EXPECT_NE(std::string(e.what()).find("duration_s"), std::string::npos)
            << "duration " << duration << ": " << e.what();
    }
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

    // A duration must be finite and span at least one display frame (1e-4 s
    // at 120 Hz does not), and its frame count must fit std::int64_t (1e300 s
    // does not).
    for (const double duration : {0.0, 1e-4, std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN(), 1e300}) {
        config = clean_rig(video::make_dark_gray_video(480, 270));
        config.duration_s = duration;
        expect_duration_rejected([&] { run_link_experiment(config); }, duration);
    }

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

// Per-observer scores of three small runs, recorded as exact doubles so
// any change to the site pooling, the filters or the graph that moves a
// single bit shows up. At 480x270 with 256 sites no site sits on the
// frame's last row or column.
Flicker_experiment_config frozen_rig(std::shared_ptr<const video::Video_source> source)
{
    Flicker_experiment_config config;
    config.video = std::move(source);
    config.inframe = paper_config(480, 270);
    config.duration_s = 1.0;
    config.options.max_sites = 256;
    return config;
}

TEST(FlickerRunner, ScoresMatchFrozenValues)
{
    {
        // 1-channel solid video, InFrame encoder.
        const auto config = frozen_rig(std::make_shared<video::Solid_video>(480, 270, 200.0f));
        const std::vector<double> want = {
            0x1.14cc94951aa08p-3, 0x0p+0, 0x1.63c3f5fd9077cp-1, 0x1.5b30ff879a018p-3,
            0x1.587b0d4db979ep-2, 0x1.4b71740b414fp-3, 0x0p+0, 0x0p+0,
        };
        EXPECT_EQ(run_flicker_experiment(config).scores, want) << "solid";
    }
    {
        // 3-channel tinted sunrise, InFrame encoder.
        auto config = frozen_rig(std::make_shared<video::Tinted_video>(
            video::make_sunrise_video(480, 270), video::Tinted_video::Tint{10.0f, 5.0f, 30.0f},
            video::Tinted_video::Tint{255.0f, 220.0f, 180.0f}));
        config.inframe.geometry = coding::fitted_geometry(480, 270, 2);
        ASSERT_EQ(config.video->frame(0).channels(), 3);
        const std::vector<double> want = {
            0x0p+0, 0x0p+0, 0x1.b91565822db56p-2, 0x0p+0,
            0x1.fcd81a2a74d4p-6, 0x0p+0, 0x0p+0, 0x0p+0,
        };
        EXPECT_EQ(run_flicker_experiment(config).scores, want) << "tinted sunrise";
    }
    {
        // A caller's frame_producer: +-6 full-field flashes at 30 Hz.
        auto config = frozen_rig(video::make_dark_gray_video(480, 270));
        config.frame_producer = [](const img::Imagef& video_frame, std::int64_t j) {
            img::Imagef out = video_frame;
            const float offset = (j % 4 < 2) ? 6.0f : -6.0f;
            out.transform([&](float v) { return v + offset; });
            return out;
        };
        const std::vector<double> want = {
            0x1.cffeffb800faap-1, 0x1.9233a74576798p-1, 0x1.df88766210a1fp+0,
            0x1.e6545f5c4311ap-1, 0x1.5dca54281afa9p+0, 0x1.f69befbd6b82ap-1,
            0x1.51031358d8276p-1, 0x1.7394a70f9c1a6p-1,
        };
        EXPECT_EQ(run_flicker_experiment(config).scores, want) << "frame_producer";
    }
}

TEST(FlickerRunner, Validation)
{
    Flicker_experiment_config config;
    config.video = nullptr;
    EXPECT_THROW(run_flicker_experiment(config), util::Contract_violation);

    for (const double duration : {0.0, 1e-4, std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::quiet_NaN(), 1e300}) {
        config = frozen_rig(video::make_dark_gray_video(480, 270));
        config.duration_s = duration;
        expect_duration_rejected([&] { run_flicker_experiment(config); }, duration);
    }
}

} // namespace
