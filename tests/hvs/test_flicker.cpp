#include "hvs/flicker.hpp"

#include "imgproc/draw.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
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

// One observer watching `frames` side by side with a reference that holds
// the unmodulated content, one frame per shown frame.
Flicker_result assess(std::span<const Imagef> frames, const Imagef& reference,
                      const Observer& observer = {}, const Flicker_options& options = {})
{
    Flicker_assessor assessor(width, height, fps, {observer}, options);
    for (const auto& frame : frames) assessor.push_frame_pair(frame, reference);
    return assessor.results().at(0);
}

Imagef solid(float level)
{
    return Imagef(width, height, 1, level);
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
    const auto r = assess(frames, solid(127.0f));
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
    const auto r = assess(frames, solid(127.0f));
    EXPECT_LT(r.score, 1.0);
}

TEST(FlickerAssessor, ThirtyHzAlternationIsClearlyVisible)
{
    // The same amplitude at 30 Hz (naive-design cadence) must flicker.
    const auto frames = modulated_frames(127.0f, 20.0f, 4, 240);
    const auto r = assess(frames, solid(127.0f));
    EXPECT_GT(r.score, 2.0);
}

TEST(FlickerAssessor, ScoreGrowsWithAmplitude)
{
    const auto small = modulated_frames(127.0f, 5.0f, 4, 240);
    const auto large = modulated_frames(127.0f, 40.0f, 4, 240);
    const auto r_small = assess(small, solid(127.0f));
    const auto r_large = assess(large, solid(127.0f));
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
    const auto r = assess(frames, solid(127.0f));
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
    const auto r_checker = assess(checker_frames, solid(127.0f), {}, options);
    const auto r_solid = assess(solid_frames, solid(127.0f), {}, options);
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
    const auto r_steady = assess(frames, solid(127.0f), {}, steady);
    const auto r_moving = assess(frames, solid(127.0f), {}, moving);
    EXPECT_GT(r_moving.visibility_ratio, 2.0 * r_steady.visibility_ratio);
}

TEST(FlickerAssessor, SensitiveObserverScoresHigher)
{
    const auto frames = modulated_frames(127.0f, 8.0f, 4, 240);
    Observer expert;
    expert.amp_threshold = 0.6;
    Observer casual;
    casual.amp_threshold = 2.0;
    const auto r_expert = assess(frames, solid(127.0f), expert);
    const auto r_casual = assess(frames, solid(127.0f), casual);
    EXPECT_GT(r_expert.score, r_casual.score);
}

TEST(FlickerAssessor, FrameSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, {Observer{}});
    EXPECT_THROW(assessor.push_frame_pair(Imagef(width + 1, height), Imagef(width, height)),
                 Contract_violation);
}

TEST(FlickerAssessor, OptionValidation)
{
    const auto rejects = [](double frame_fps, Flicker_options options) {
        EXPECT_THROW(Flicker_assessor(width, height, frame_fps, {Observer{}}, options),
                     Contract_violation);
    };
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    Flicker_options bad;
    bad.max_sites = 0;
    rejects(fps, bad);
    EXPECT_THROW(Flicker_assessor(0, height, fps, {Observer{}}), Contract_violation);
    rejects(0.0, {});
    rejects(inf, {});
    rejects(nan, {});
    // The velocity must be finite and at most the width (96) per frame; a
    // finite 1.7e308 px/frame used to overflow to a NaN site position.
    for (const double velocity : {nan, inf, -inf, 96.5, -96.5, 1.7e308}) {
        bad = {};
        bad.gaze_velocity_x = velocity;
        rejects(fps, bad);
    }
    // Sigma must be finite and positive, and its pixel size (sigma * 54 /
    // 540 here) at most max(width, height) = 96.
    for (const double sigma : {nan, -1.0, 0.0, inf, 1e300, 961.0}) {
        bad = {};
        bad.pooling_sigma_540 = sigma;
        rejects(fps, bad);
    }
    Flicker_options widest;
    widest.pooling_sigma_540 = 960.0;
    widest.gaze_velocity_x = -96.0;
    EXPECT_NO_THROW(Flicker_assessor(width, height, fps, {Observer{}}, widest));
}

TEST(FlickerAssessor, ResultBeforeFramesIsZero)
{
    Flicker_assessor assessor(width, height, fps, {Observer{}});
    const auto r = assessor.results().at(0);
    EXPECT_EQ(r.frames_assessed, 0u);
    EXPECT_EQ(r.score, 0.0);
}

TEST(FlickerAssessor, ComparativeModeIgnoresContentMotion)
{
    // A hard-cutting video scores a perfect 0 in side-by-side mode when
    // shown == reference — content motion is not an artifact.
    Flicker_assessor comparative(width, height, fps, {Observer{}});
    for (int i = 0; i < 200; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f; // cut every 1/3 s
        const Imagef frame(width, height, 1, level);
        comparative.push_frame_pair(frame, frame);
    }
    EXPECT_NEAR(comparative.results().at(0).visibility_ratio, 0.0, 1e-9);
}

TEST(FlickerAssessor, ComparativeModeStillCatchesArtifactsOnMovingContent)
{
    // Same cutting video, but the shown version carries a 30 Hz full-field
    // artifact: the comparative assessor must flag it.
    Flicker_assessor comparative(width, height, fps, {Observer{}});
    for (int i = 0; i < 240; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f;
        const Imagef reference(width, height, 1, level);
        const float artifact = (i % 4) < 2 ? 15.0f : -15.0f;
        const Imagef shown(width, height, 1, level + artifact);
        comparative.push_frame_pair(shown, reference);
    }
    EXPECT_GT(comparative.results().at(0).score, 2.0);
}

TEST(FlickerAssessor, ReferenceSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, {Observer{}});
    EXPECT_THROW(assessor.push_frame_pair(Imagef(width, height), Imagef(width + 2, height)),
                 Contract_violation);
}

TEST(FlickerPanel, ReportsMeanAndSpread)
{
    const auto frames = modulated_frames(127.0f, 12.0f, 4, 200);
    const auto panel = make_observer_panel(8, 42);
    Flicker_assessor assessor(width, height, fps, panel);
    for (const auto& frame : frames) assessor.push_frame_pair(frame, solid(127.0f));
    const auto results = assessor.results();
    ASSERT_EQ(results.size(), 8u);
    inframe::util::Running_stats stats;
    for (const auto& r : results) {
        EXPECT_EQ(r.frames_assessed, 200u);
        EXPECT_GE(r.score, 0.0);
        EXPECT_LE(r.score, 4.0);
        stats.add(r.score);
    }
    EXPECT_GT(stats.mean(), 0.5);
    EXPECT_GT(stats.stddev(), 0.0);
}

TEST(FlickerPanel, EachScoreMatchesAOneObserverPanel)
{
    // The panel shares sites and adaptation; every observer's result is
    // bit-identical to assessing that observer alone. Gaze drift and a
    // localized patch keep the sites distinct.
    std::vector<Imagef> frames;
    for (int i = 0; i < 160; ++i) {
        Imagef frame(width, height, 1, 127.0f);
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        inframe::img::fill_rect(frame, 10, 10, 30, 20, 127.0f + sign * 9.0f);
        frames.push_back(std::move(frame));
    }
    Flicker_options options;
    options.gaze_velocity_x = 1.5;
    const auto panel = make_observer_panel(5, 7);
    Flicker_assessor together(width, height, fps, panel, options);
    for (const auto& frame : frames) together.push_frame_pair(frame, solid(127.0f));
    const auto results = together.results();
    ASSERT_EQ(results.size(), panel.size());
    for (std::size_t o = 0; o < panel.size(); ++o) {
        const auto alone = assess(frames, solid(127.0f), panel[o], options);
        EXPECT_EQ(results[o].score, alone.score) << "observer " << o;
        EXPECT_EQ(results[o].visibility_ratio, alone.visibility_ratio) << "observer " << o;
        EXPECT_EQ(results[o].peak_perceived_amplitude, alone.peak_perceived_amplitude);
        EXPECT_EQ(results[o].adapt_luminance, alone.adapt_luminance);
    }
}

TEST(FlickerPanel, EmptyPanelThrows)
{
    EXPECT_THROW(Flicker_assessor(width, height, fps, {}), Contract_violation);
}

} // namespace
