// Display scheduling: mapping between video frames (30 FPS in the paper)
// and display refreshes (120 Hz). Each video frame is shown for
// refresh_rate / video_fps consecutive display frames — the "duplicate each
// video frame four times" step of Fig. 2.
#pragma once

#include "video/source.hpp"

#include <cstdint>

namespace inframe::video {

// Every method throws Contract_violation unless both rates are finite and
// positive.
struct Playback_schedule {
    double display_fps = 120.0;
    double video_fps = 30.0;

    // Display frames per video frame (must divide evenly; the paper's rig
    // is 120/30 = 4). Throws for non-integer ratios — callers that need a
    // fixed repeat count (the encoder's tau cadence) require one.
    int repeats_per_video_frame() const;

    // Video frame shown during the given display frame: exact integer
    // division by repeats_per_video_frame(), so it throws for the same
    // non-integer ratios.
    std::int64_t video_frame_for_display(std::int64_t display_index) const;

    // Display timestamp in seconds.
    double display_time(std::int64_t display_index) const;
};

// The paper's standard library of evaluation inputs (4): light gray
// (RGB 180), dark gray (RGB 127) and the sunrise clip, at the given size.
std::shared_ptr<const Video_source> make_gray_video(int width, int height);
std::shared_ptr<const Video_source> make_dark_gray_video(int width, int height);
std::shared_ptr<const Video_source> make_sunrise_video(int width, int height,
                                                       std::uint64_t seed = 1);

} // namespace inframe::video
