#include "video/playback.hpp"

#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using namespace inframe::video;
using inframe::util::Contract_violation;

TEST(PlaybackSchedule, PaperRigIsFourRepeats)
{
    Playback_schedule schedule; // 120 / 30
    EXPECT_EQ(schedule.repeats_per_video_frame(), 4);
}

TEST(PlaybackSchedule, MapsDisplayToVideoFrames)
{
    Playback_schedule schedule;
    EXPECT_EQ(schedule.video_frame_for_display(0), 0);
    EXPECT_EQ(schedule.video_frame_for_display(3), 0);
    EXPECT_EQ(schedule.video_frame_for_display(4), 1);
    EXPECT_EQ(schedule.video_frame_for_display(119), 29);
}

TEST(PlaybackSchedule, SixtyHzDisplay)
{
    Playback_schedule schedule{.display_fps = 60.0, .video_fps = 30.0};
    EXPECT_EQ(schedule.repeats_per_video_frame(), 2);
    EXPECT_EQ(schedule.video_frame_for_display(5), 2);
}

TEST(PlaybackSchedule, NonIntegerRatioRejected)
{
    // The encoder's complementary-pair cadence needs an integer repeat
    // count, so both methods refuse non-integer ratios (e.g. 3:2 pulldown).
    Playback_schedule schedule{.display_fps = 100.0, .video_fps = 30.0};
    EXPECT_THROW(schedule.repeats_per_video_frame(), Contract_violation);
    EXPECT_THROW(schedule.video_frame_for_display(0), Contract_violation);
}

TEST(PlaybackSchedule, FilmPulldownRatioRejected)
{
    // 60 Hz display over 24 fps film: ratio 2.5, the 3:2-pulldown case.
    const Playback_schedule film{.display_fps = 60.0, .video_fps = 24.0};
    EXPECT_THROW(film.repeats_per_video_frame(), Contract_violation);
    EXPECT_THROW(film.video_frame_for_display(5), Contract_violation);
}

TEST(PlaybackSchedule, NtscFilmRateRejected)
{
    // 120 Hz display over 23.976 fps (24000/1001 NTSC film).
    const Playback_schedule ntsc{.display_fps = 120.0, .video_fps = 24000.0 / 1001.0};
    EXPECT_THROW(ntsc.repeats_per_video_frame(), Contract_violation);
    EXPECT_THROW(ntsc.video_frame_for_display(1199), Contract_violation);
}

TEST(PlaybackSchedule, IntegerRatioUnaffectedByFloatPath)
{
    // The mapping is exact integer division: spot-check a late frame where
    // a floating-point mapping would drift.
    Playback_schedule schedule{.display_fps = 120.0, .video_fps = 30.0};
    EXPECT_EQ(schedule.video_frame_for_display(3'000'000'000LL), 750'000'000LL);
}

TEST(PlaybackSchedule, DisplayTime)
{
    Playback_schedule schedule;
    EXPECT_DOUBLE_EQ(schedule.display_time(0), 0.0);
    EXPECT_DOUBLE_EQ(schedule.display_time(120), 1.0);
    EXPECT_THROW(schedule.display_time(-1), Contract_violation);
}

TEST(PlaybackSchedule, RejectsNonFiniteOrNonPositiveRates)
{
    const double bad_rates[] = {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()};
    for (const double bad : bad_rates) {
        for (const auto& schedule : {Playback_schedule{.display_fps = bad, .video_fps = 30.0},
                                     Playback_schedule{.display_fps = 120.0, .video_fps = bad}}) {
            EXPECT_THROW(schedule.repeats_per_video_frame(), Contract_violation) << bad;
            EXPECT_THROW(schedule.video_frame_for_display(4), Contract_violation) << bad;
            EXPECT_THROW(schedule.display_time(4), Contract_violation) << bad;
        }
    }
}

TEST(StandardVideos, PaperLevels)
{
    const auto gray = make_gray_video(32, 18);
    const auto dark = make_dark_gray_video(32, 18);
    EXPECT_EQ(gray->frame(0)(0, 0), 180.0f);
    EXPECT_EQ(dark->frame(0)(0, 0), 127.0f);
    EXPECT_DOUBLE_EQ(gray->fps(), 30.0);
}

TEST(StandardVideos, SunriseIsCachedAndSized)
{
    const auto sunrise = make_sunrise_video(64, 36);
    EXPECT_EQ(sunrise->width(), 64);
    EXPECT_EQ(sunrise->height(), 36);
    EXPECT_EQ(sunrise->name(), "sunrise");
}

} // namespace
