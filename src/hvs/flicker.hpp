// Frame-sequence flicker assessment.
//
// Replaces the paper's subjective side-by-side user study (4): given the
// sequence of frames a display emits next to the unmodified video, predict
// the 0-4 flicker score each viewer of a panel would report. The retina is
// sampled at a grid of sites, each site pools luminance over a small
// Gaussian aperture (the eye cannot resolve individual super Pixels at the
// paper's viewing distance — the basis of the Pixel-size design choice),
// and each pooled waveform runs through the observer's Perceptual_filter
// band-pass. The verdict is driven by the worst sites: flicker anywhere on
// the screen is flicker.
//
// An optional horizontal gaze drift models the phantom-array condition: a
// moving retina turns the temporally-alternating chessboard into a spatial
// pattern that no longer cancels, which is why the paper keeps super
// Pixels near the eye's resolution limit.
#pragma once

#include "hvs/temporal_model.hpp"
#include "imgproc/image.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace inframe::hvs {

struct Flicker_options {
    // Retinal sampling sites (upper bound; the grid is near-square).
    int max_sites = 1024;

    // Gaussian pooling aperture, expressed at a 540-pixel-tall frame and
    // scaled linearly with resolution so results are viewing-geometry
    // stable: sigma_px = pooling_sigma_540 * height / 540.
    double pooling_sigma_540 = 1.0;

    // Horizontal gaze drift in pixels per frame (phantom-array
    // condition); 0 = steady fixation.
    double gaze_velocity_x = 0.0;

    // Site placement jitter seed.
    std::uint64_t seed = 9;
};

struct Flicker_result {
    // Predicted subjective score on the paper's 0-4 scale.
    double score = 0.0;

    // Visibility ratio backing the score (perceived amplitude / threshold,
    // pooled over the worst sites).
    double visibility_ratio = 0.0;

    // Worst single-site perceived amplitude (pixel-value units).
    double peak_perceived_amplitude = 0.0;

    // Luminance the model adapted to.
    double adapt_luminance = 0.0;

    std::size_t frames_assessed = 0;
};

// Judges a whole observer panel in one pass. The panel watches the same
// screen, so each site's position and adaptation level are shared; only
// the perceptual filter and the peak amplitude are per observer.
class Flicker_assessor {
public:
    // Throws Contract_violation on an empty panel, a non-positive frame
    // size, a non-finite or non-positive fps, no sites, a gaze velocity
    // that is not finite or exceeds the width per frame, or a pooling
    // sigma that is not finite and positive or whose pixel size exceeds
    // max(width, height).
    Flicker_assessor(int width, int height, double fps, std::vector<Observer> panel,
                     Flicker_options options = {});
    ~Flicker_assessor();

    Flicker_assessor(Flicker_assessor&&) noexcept;
    Flicker_assessor& operator=(Flicker_assessor&&) noexcept;

    // Side-by-side protocol (the paper's user study showed original and
    // multiplexed videos together and asked for the *difference*): feeds
    // the shown frame along with the unmodified reference frame, both at
    // the display rate. Content motion, being present in both, cancels;
    // only the embedding artifacts are scored. Colour frames are judged
    // on their luminance.
    void push_frame_pair(const img::Imagef& shown, const img::Imagef& reference);

    // One result per observer, in panel order, reflecting the frames
    // pushed so far; the assessor can keep receiving frames.
    std::vector<Flicker_result> results() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

// Panel study: mean and standard deviation of the score over a panel, as
// the paper reports in Fig. 6.
struct Panel_result {
    double mean_score = 0.0;
    double stddev_score = 0.0;
    std::vector<double> scores;
};

} // namespace inframe::hvs
