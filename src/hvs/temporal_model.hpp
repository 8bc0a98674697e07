// Temporal model of human flicker perception.
//
// The paper's design rests on approximating the human vision system "as a
// linear low-pass filter at a high frequency exceeding the CFF" (2). This
// module implements that approximation concretely:
//
//  - the front end is a cascade of first-order low-pass stages whose corner
//    frequency tracks luminance via the Ferry-Porter law (CFF rises with
//    log luminance — this is why the paper observes stronger flicker on
//    brighter videos, Fig. 6 left);
//  - a slow adaptation path is subtracted, making the overall response
//    band-pass: gradual luminance drift (ordinary video content) is not
//    flicker, fast residuals are;
//  - visibility is judged on perceived *amplitude* against a
//    luminance-dependent threshold (high-frequency flicker detection is
//    amplitude-linear rather than Weber-contrast driven, per Kelly 1972).
#pragma once

#include "dsp/filter.hpp"
#include "hvs/observer.hpp"

#include <span>

namespace inframe::hvs {

// Ferry-Porter slope: CFF gain in Hz per decade of luminance, above the
// observer's CFF at the reference luminance (pixel level 100).
inline constexpr double ferry_porter_slope_hz = 12.0;

// Luminance-adapted CFF for an observer (Ferry-Porter law).
double cff_hz(const Observer& observer, double luminance);

// Per-stage corner frequency of the cascade for the adapted CFF.
double corner_frequency_hz(const Observer& observer, double luminance);

// Amplitude visibility threshold (pixel-value units) at the luminance.
double amplitude_threshold(const Observer& observer, double luminance);

// Steady-state gain of the perceptual band-pass at a frequency. The
// response is H_fast(f) * (1 - H_adapt(f)): the front-end low-pass cascade
// followed by subtractive adaptation of its own slow component. Computed
// from the exact discrete-time responses at the given sample rate.
double perceptual_gain(const Observer& observer, double luminance, double frequency_hz,
                       double sample_rate_hz = 120.0);

// Streaming band-pass stage for one retinal site: feed display-rate
// luminance samples, read back the perceived deviation.
class Perceptual_filter {
public:
    Perceptual_filter(const Observer& observer, double adapt_luminance, double sample_rate_hz);

    // Returns the perceived deviation (fast path minus adaptation path).
    double step(double luminance_sample);

    // Settles both paths at a steady luminance (no start-up transient).
    void prime(double luminance);

private:
    int oversample_;
    dsp::Exponential_cascade fast_;
    dsp::Exponential_cascade slow_;
};

// Offline helper: perceived peak deviation of a waveform after warmup.
// Useful for waveform-level analysis (Fig. 5 style) and unit tests.
double perceived_peak_amplitude(const Observer& observer, std::span<const double> waveform,
                                double sample_rate_hz, double adapt_luminance,
                                double warmup_seconds = 0.5);

// Maps a visibility ratio (perceived amplitude / threshold) to the paper's
// 0-4 subjective scale: r <= 0.5 -> 0 ("no difference"), r == 1 -> 1
// ("almost unnoticeable"), doubling r adds one level, capped at 4.
double score_from_ratio(double ratio);

} // namespace inframe::hvs
