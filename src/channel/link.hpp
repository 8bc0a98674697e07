// Screen-camera link: composes the display and camera models with the
// timing math that produces the paper's channel impairments.
//
// Display frames are pushed at the refresh cadence; the link emits each and
// buffers the optics input (Camera_optics::optics_input). When a capture
// completes, every sensor row integrates its exposure window against the
// piecewise-constant light field, projecting a row of just the buffered
// frames that window overlaps; frames no window overlaps are dropped
// without ever being projected. Because rows start their exposure at
// staggered times (rolling shutter), a single capture can mix adjacent
// display frames differently per row — exactly the distortion the InFrame
// decoder must tolerate (3.3). Frame-rate mismatch and phase drift come
// out of the same timing model for free.
#pragma once

#include "channel/camera.hpp"
#include "channel/display.hpp"
#include "channel/impairment.hpp"

#include <cstdint>
#include <deque>
#include <vector>

namespace inframe::channel {

struct Capture {
    img::Imagef image;

    // Capture sequence number (k-th camera frame).
    std::int64_t index = 0;

    // Time the first row began integrating, seconds.
    double start_time = 0.0;
};

class Screen_camera_link {
public:
    // `impairments` builds the fault-injection chain applied to every
    // completed capture (drops, duplication, drift, shake, tear,
    // occlusion); the default is the clean link.
    Screen_camera_link(Display_params display, Camera_params camera, int screen_width,
                       int screen_height, const Impairment_config& impairments = {});

    // Pushes the next logical display frame (refresh cadence). Returns the
    // captures completed by the end of this refresh interval (usually zero
    // or one). Captures the impairment chain drops never appear here.
    // Throws Contract_violation unless the frame has the screen size.
    std::vector<Capture> push_display_frame(const img::Imagef& frame);

    // Number of display frames pushed so far.
    std::int64_t display_frames_pushed() const { return display_index_; }

    // Captures the impairment chain swallowed so far.
    std::int64_t captures_dropped() const { return captures_dropped_; }

    const Camera_params& camera_params() const { return camera_params_; }
    const Display_params& display_params() const { return display_.params(); }

private:
    struct Buffered_frame {
        // Emitted frame, or its perspective warp (Camera_optics::optics_input).
        img::Imagef optics_input;
        double start_time;
        double end_time;
    };

    bool capture_complete(double now) const;
    Capture assemble_capture();
    void trim_buffer();

    Display_model display_;
    Camera_params camera_params_;
    Camera_optics optics_;
    Impairment_chain impairments_;
    std::deque<Buffered_frame> buffer_;
    std::int64_t display_index_ = 0;
    std::int64_t capture_index_ = 0;
    std::int64_t captures_dropped_ = 0;
};

// Convenience: run a prepared sequence of display frames through a fresh
// link and collect all completed captures.
std::vector<Capture> run_link(const Display_params& display, const Camera_params& camera,
                              std::span<const img::Imagef> display_frames);

} // namespace inframe::channel
