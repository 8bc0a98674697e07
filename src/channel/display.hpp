// Display model.
//
// Stands in for the paper's Eizo FG2421 (120 Hz, 1920x1080, brightness
// 100%). The quantity downstream components consume is the spatio-temporal
// light field the panel emits: logical frames arrive at the refresh rate
// and leave as emitted irradiance after brightness scaling and the LCD
// pixel response (liquid crystal does not switch instantly; the emitted
// value relaxes toward the target each refresh).
#pragma once

#include "imgproc/image.hpp"

#include <cstdint>

namespace inframe::channel {

// Display refreshes in `duration_s` seconds at `refresh_hz`, rounded to
// the nearest refresh: the frame count every experiment driver runs.
// Throws Contract_violation unless the duration is finite, the rate
// positive, and the count at least 1 and within std::int64_t.
std::int64_t display_frame_count(double duration_s, double refresh_hz);

struct Display_params {
    double refresh_hz = 120.0;

    // Backlight/brightness scaling of pixel values (1.0 = the paper's
    // "brightness as 100%").
    double brightness = 1.0;

    // Fraction of the previous emitted value that persists into the next
    // refresh (first-order LC response). 0 = ideal instant panel. Typical
    // fast TN/VA panels at 120 Hz: 0.05-0.2.
    double response_persistence = 0.08;

    // Uniform black-level light leakage added after scaling (LCDs do not
    // reach true zero).
    double black_level = 0.5;
};

class Display_model {
public:
    explicit Display_model(Display_params params);

    // Submits the next logical frame (refresh-rate cadence) and returns
    // the light field emitted during that refresh interval, in a
    // Frame_pool frame.
    img::Imagef emit(const img::Imagef& frame);

    // Duration of one refresh interval in seconds.
    double refresh_period() const { return 1.0 / params_.refresh_hz; }

    const Display_params& params() const { return params_; }

private:
    Display_params params_;
    // Last emitted frame while persistence is on; empty = no history.
    img::Imagef previous_emitted_;
};

} // namespace inframe::channel
