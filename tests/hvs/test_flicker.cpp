#include "hvs/flicker.hpp"

#include "imgproc/draw.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace inframe::hvs;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

constexpr int width = 96;
constexpr int height = 54;
constexpr double fps = 120.0;

std::vector<Imagef> steady_frames(float level, int count)
{
    return std::vector<Imagef>(static_cast<std::size_t>(count), Imagef(width, height, 1, level));
}

// Frames whose whole area modulates as level + amplitude * pattern(t).
std::vector<Imagef> modulated_frames(float level, float amplitude, int period_frames, int count)
{
    std::vector<Imagef> frames;
    frames.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const float sign = (i % period_frames) < period_frames / 2 ? 1.0f : -1.0f;
        frames.emplace_back(width, height, 1, level + sign * amplitude);
    }
    return frames;
}

TEST(FlickerAssessor, SteadyVideoScoresZero)
{
    const auto frames = steady_frames(127.0f, 240);
    const auto r = assess_flicker(frames, fps, Observer{});
    EXPECT_EQ(r.frames_assessed, 240u);
    EXPECT_NEAR(r.score, 0.0, 1e-6);
    EXPECT_NEAR(r.peak_perceived_amplitude, 0.0, 1e-6);
    EXPECT_NEAR(r.adapt_luminance, 127.0, 0.5);
}

TEST(FlickerAssessor, SixtyHzAlternationIsInvisible)
{
    // Full-screen +-20 alternation every frame (60 Hz on a 120 Hz display):
    // the InFrame steady state, which must fuse away.
    const auto frames = modulated_frames(127.0f, 20.0f, 2, 240);
    const auto r = assess_flicker(frames, fps, Observer{});
    EXPECT_LT(r.score, 1.0);
}

TEST(FlickerAssessor, ThirtyHzAlternationIsClearlyVisible)
{
    // The same amplitude at 30 Hz (naive-design cadence) must flicker.
    const auto frames = modulated_frames(127.0f, 20.0f, 4, 240);
    const auto r = assess_flicker(frames, fps, Observer{});
    EXPECT_GT(r.score, 2.0);
}

TEST(FlickerAssessor, ScoreGrowsWithAmplitude)
{
    const auto small = modulated_frames(127.0f, 5.0f, 4, 240);
    const auto large = modulated_frames(127.0f, 40.0f, 4, 240);
    const auto r_small = assess_flicker(small, fps, Observer{});
    const auto r_large = assess_flicker(large, fps, Observer{});
    EXPECT_GT(r_large.visibility_ratio, r_small.visibility_ratio);
}

TEST(FlickerAssessor, LocalizedFlickerIsStillCaught)
{
    // Only a small patch flickers at 30 Hz; the panel verdict must follow
    // the worst region, not the average.
    std::vector<Imagef> frames;
    for (int i = 0; i < 240; ++i) {
        Imagef frame(width, height, 1, 127.0f);
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        inframe::img::fill_rect(frame, 10, 10, 20, 12, 127.0f + sign * 25.0f);
        frames.push_back(std::move(frame));
    }
    const auto r = assess_flicker(frames, fps, Observer{});
    EXPECT_GT(r.score, 1.5);
}

TEST(FlickerAssessor, FineCheckerboardFusesSpatially)
{
    // A 1-px checkerboard alternating phase at 30 Hz: spatial pooling
    // cancels most of it even at a flicker-friendly temporal rate,
    // unlike the full-field case. (Pixel-size rationale, 3.3.)
    std::vector<Imagef> checker_frames;
    std::vector<Imagef> solid_frames;
    for (int i = 0; i < 240; ++i) {
        const int phase = (i % 4) < 2 ? 0 : 1;
        checker_frames.push_back(
            inframe::img::checkerboard(width, height, 1, 107.0f, 147.0f, phase));
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        solid_frames.emplace_back(width, height, 1, 127.0f + sign * 20.0f);
    }
    // The test frames are tiny (96x54); scale the pooling aperture so it
    // covers the same *fraction* of the frame as the default does at the
    // paper's resolution (where one pooled aperture spans a super Pixel).
    Flicker_options options;
    options.pooling_sigma_540 = 10.0;
    const auto r_checker =
        assess_flicker(checker_frames, fps, Observer{}, options);
    const auto r_solid =
        assess_flicker(solid_frames, fps, Observer{}, options);
    EXPECT_LT(r_checker.visibility_ratio, 0.3 * r_solid.visibility_ratio);
}

TEST(FlickerAssessor, GazeDriftRevealsPhantomArray)
{
    // With steady gaze a +-delta 60 Hz checkerboard fuses; a drifting gaze
    // (saccade-like) breaks the complementary cancellation.
    std::vector<Imagef> frames;
    for (int i = 0; i < 240; ++i) {
        const int phase = i % 2;
        frames.push_back(inframe::img::checkerboard(width, height, 4, 107.0f, 147.0f, phase));
    }
    Flicker_options steady;
    Flicker_options moving;
    // 3 px/frame against 4 px cells: the retinal image beats the 60 Hz
    // alternation down to 15 Hz, squarely in the visible band.
    moving.gaze_velocity_x = 3.0;
    const auto r_steady =
        assess_flicker(frames, fps, Observer{}, steady);
    const auto r_moving =
        assess_flicker(frames, fps, Observer{}, moving);
    EXPECT_GT(r_moving.visibility_ratio, 2.0 * r_steady.visibility_ratio);
}

TEST(FlickerAssessor, SensitiveObserverScoresHigher)
{
    const auto frames = modulated_frames(127.0f, 8.0f, 4, 240);
    Observer expert;
    expert.amp_threshold = 0.6;
    Observer casual;
    casual.amp_threshold = 2.0;
    const auto r_expert = assess_flicker(frames, fps, expert);
    const auto r_casual = assess_flicker(frames, fps, casual);
    EXPECT_GT(r_expert.score, r_casual.score);
}

TEST(FlickerAssessor, FrameSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, Observer{});
    EXPECT_THROW(assessor.push_frame(Imagef(width + 1, height)), Contract_violation);
}

TEST(FlickerAssessor, OptionValidation)
{
    Flicker_options bad;
    bad.max_sites = 0;
    EXPECT_THROW(Flicker_assessor(width, height, fps, Observer{}, bad), Contract_violation);
    EXPECT_THROW(Flicker_assessor(0, height, fps, Observer{}), Contract_violation);
    EXPECT_THROW(Flicker_assessor(width, height, 0.0, Observer{}), Contract_violation);
}

TEST(FlickerAssessor, EmptySequenceThrows)
{
    EXPECT_THROW(assess_flicker({}, fps, Observer{}), Contract_violation);
}

TEST(FlickerAssessor, ResultBeforeFramesIsZero)
{
    Flicker_assessor assessor(width, height, fps, Observer{});
    const auto r = assessor.result();
    EXPECT_EQ(r.frames_assessed, 0u);
    EXPECT_EQ(r.score, 0.0);
}

TEST(FlickerAssessor, ComparativeModeIgnoresContentMotion)
{
    // A hard-cutting video scores as "flicker" in absolute mode but as a
    // perfect 0 in side-by-side mode when shown == reference — content
    // motion is not an artifact.
    std::vector<Imagef> frames;
    for (int i = 0; i < 200; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f; // cut every 1/3 s
        frames.emplace_back(width, height, 1, level);
    }
    Flicker_assessor absolute(width, height, fps, Observer{});
    Flicker_assessor comparative(width, height, fps, Observer{});
    for (const auto& frame : frames) {
        absolute.push_frame(frame);
        comparative.push_frame_pair(frame, frame);
    }
    EXPECT_GT(absolute.result().visibility_ratio, 1.0);
    EXPECT_NEAR(comparative.result().visibility_ratio, 0.0, 1e-9);
}

TEST(FlickerAssessor, ComparativeModeStillCatchesArtifactsOnMovingContent)
{
    // Same cutting video, but the shown version carries a 30 Hz full-field
    // artifact: the comparative assessor must flag it.
    Flicker_assessor comparative(width, height, fps, Observer{});
    for (int i = 0; i < 240; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f;
        const Imagef reference(width, height, 1, level);
        const float artifact = (i % 4) < 2 ? 15.0f : -15.0f;
        const Imagef shown(width, height, 1, level + artifact);
        comparative.push_frame_pair(shown, reference);
    }
    EXPECT_GT(comparative.result().score, 2.0);
}

TEST(FlickerAssessor, ReferenceSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, Observer{});
    EXPECT_THROW(assessor.push_frame_pair(Imagef(width, height), Imagef(width + 2, height)),
                 Contract_violation);
}

TEST(FlickerPanel, ReportsMeanAndSpread)
{
    const auto frames = modulated_frames(127.0f, 12.0f, 4, 200);
    const auto panel = make_observer_panel(8, 42);
    const auto result =
        assess_flicker_panel(frames, fps, panel);
    ASSERT_EQ(result.scores.size(), 8u);
    EXPECT_GT(result.mean_score, 0.5);
    EXPECT_GE(result.stddev_score, 0.0);
    for (const double s : result.scores) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 4.0);
    }
}

TEST(FlickerPanel, EmptyPanelThrows)
{
    const auto frames = steady_frames(127.0f, 10);
    EXPECT_THROW(assess_flicker_panel(frames, fps, {}), Contract_violation);
}

} // namespace
