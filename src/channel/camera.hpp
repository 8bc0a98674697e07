// Camera model.
//
// Stands in for the paper's Lumia 1020 capturing the screen at 1280x720,
// 30 FPS from 50 cm. Split in two stages:
//
//  - Camera_optics: time-invariant geometry and optics. Maps an emitted
//    screen light field to sensor-plane irradiance: photosite area
//    integration (screen -> sensor resample), sub-pixel misalignment and
//    lens blur, composed into one separable linear operator. The operator
//    runs one sensor row at a time (project_row): a row is a pure function
//    of the optics input and its index, so a caller can project just the
//    rows it needs.
//  - Exposure/readout (driven by Screen_camera_link): each sensor ROW
//    integrates the light field over its own exposure window — the rolling
//    shutter the paper names as a key channel impairment — projecting only
//    the display frames that window overlaps; then shot noise, read noise,
//    gain and 8-bit quantization are applied.
#pragma once

#include "imgproc/image.hpp"
#include "imgproc/warp.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace inframe::channel {

struct Camera_params {
    // Capture cadence. 29.97 (NTSC timing) rather than exactly 30: the
    // camera clock is not locked to the display, so exposure windows
    // drift slowly across display frame boundaries — the frame-rate
    // mismatch impairment the paper names.
    double fps = 29.97;

    // Exposure (integration) time per row, seconds. Must be short enough
    // that a capture does not straddle a whole complementary pair, or the
    // data cancels — the paper's rig relies on a bright screen forcing a
    // short exposure. 1/480 s is a typical metering result against a
    // full-brightness LCD.
    double exposure_s = 1.0 / 480.0;

    // Rolling-shutter readout skew: delay between the first and last row
    // starting their exposure, seconds. 0 = global shutter.
    double readout_s = 0.006;

    // Sensor resolution.
    int sensor_width = 1280;
    int sensor_height = 720;

    // Lens blur on the sensor plane (Gaussian sigma, sensor pixels; at most
    // max(sensor_width, sensor_height)).
    double optical_blur_sigma = 0.5;

    // Misalignment of the screen image on the sensor (sensor pixels).
    double offset_x_px = 0.3;
    double offset_y_px = 0.2;

    // Perspective viewing geometry: maps sensor coordinates to screen
    // coordinates (e.g. a keystone from filming at an angle). When set it
    // replaces the axis-aligned resample+offset path; the decoder must be
    // given the same (calibrated) homography. img::Homography::rect_to_quad
    // builds one from the screen quad's corner positions.
    std::optional<img::Homography> sensor_to_screen;

    // Photon shot noise: stddev = shot_noise_scale * sqrt(level). The
    // default models a bright screen filling the view of a large
    // oversampling sensor (the Lumia 1020 bins ~6 photosites per output
    // pixel): SNR ~ 39 dB at level 180.
    double shot_noise_scale = 0.12;

    // Electronics read noise stddev (digital numbers).
    double read_noise_sigma = 0.8;

    // Digital gain applied before quantization.
    double gain = 1.0;

    // Start of capture 0 relative to display frame 0, seconds.
    double phase_offset_s = 0.0;

    // Quantize output to integers (8-bit pipeline).
    bool quantize = true;

    // Sensor noise stream seed.
    std::uint64_t seed = 1020;
};

class Camera_optics {
public:
    Camera_optics(const Camera_params& params, int screen_width, int screen_height);

    // Projects one emitted screen frame onto the sensor plane (every row
    // through project_row).
    img::Imagef to_sensor(const img::Imagef& emitted) const;

    // The image project_row reads for an emitted frame: the frame itself,
    // or on the sensor_to_screen path its perspective warp onto the sensor
    // grid (the emitted frame's storage then goes back to the frame pool).
    // Throws Contract_violation unless the frame has the screen size.
    img::Imagef optics_input(img::Imagef emitted) const;

    // Sensor row y of an optics input: sensor_width * channels floats into
    // `out`. column_sums is caller-owned scratch (resized here), so a loop
    // over rows allocates once.
    void project_row(const img::Imagef& input, int y, std::vector<double>& column_sums,
                     std::span<float> out) const;

    // One axis of the optics operator as a banded matrix in compressed-row
    // form: output i = sum over k < begin[i + 1] - begin[i] of
    // weights[begin[i] + k] * input[first[i] + k]. Borders are folded in
    // (clamp-to-edge), so every index stays inside the input.
    struct Taps {
        std::vector<int> first;
        std::vector<std::size_t> begin{0};
        std::vector<double> weights;
    };

private:
    // Checks the screen size; the perspective warp on the sensor_to_screen
    // path, an empty image otherwise.
    img::Imagef perspective_warp(const img::Imagef& emitted) const;

    Camera_params params_;
    int screen_width_;
    int screen_height_;
    // Built once from params_: area resample, then sub-pixel shift, then
    // lens blur along each axis; the perspective path keeps the blur only.
    Taps taps_x_;
    Taps taps_y_;
};

// Applies the sensor electronics to an integrated irradiance image in
// place: shot noise, read noise, gain, clamp, optional quantization. Row r
// of capture k draws from an independent PRNG stream seeded from
// (seed, k, r), so the noise field is a pure function of the capture —
// identical for every thread count and for out-of-order row processing.
// This is the seeding contract the determinism tests rely on (DESIGN.md,
// "Threading model & determinism"). The Gaussians are the ones
// util::Prng::next_gaussian would hand out on that stream, evaluated by
// the simd box_muller_f64 kernel: the same at every SIMD level and with
// any C library.
//
// Throws Contract_violation on a non-finite or negative noise parameter,
// a non-finite or non-positive gain, or any NaN or infinite pixel (the
// image is then partly processed).
void apply_sensor_noise_rows(img::Imagef& integrated, const Camera_params& params,
                             std::int64_t capture_index);

// The derived seed for one row's noise stream (exposed for tests).
std::uint64_t row_noise_seed(std::uint64_t seed, std::int64_t capture_index, int row);

// Auto-exposure metering: returns a copy of `params` with exposure_s and
// gain set the way a phone camera meters a scene of the given mean level
// (which must be finite and non-negative).
//
// The camera aims for the reference exposure (1/480 s) at a bright scene
// (level 180, the paper's light-gray video at 100% display brightness);
// darker scenes stretch the exposure up to 1/180 s, and any remaining
// shortfall becomes digital gain (amplifying noise). This is the
// mechanism that degrades the dark-gray and natural-video runs in Fig. 7:
// exposure beyond one display frame integrates part of the complementary
// -D frame, cancelling a fraction of the embedded pattern.
Camera_params auto_expose(Camera_params params, double scene_mean_level);

} // namespace inframe::channel
