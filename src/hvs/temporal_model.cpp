#include "hvs/temporal_model.hpp"

#include "util/contract.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace inframe::hvs {

namespace {

// Reference luminance (pixel value) at which Observer parameters hold.
constexpr double luminance_ref = 100.0;

// Stages in the low-pass cascade. Ten stages with the corner right at CFF
// give the de Lange-curve shape: nearly flat below ~20 Hz, a cliff between
// 30 and 60 Hz (gain ratio ~25x), which is the separation the
// complementary-frame design exploits.
constexpr int cascade_stages = 10;

// Relation between CFF and the per-stage corner frequency. Calibrated (with
// Observer::amp_threshold) against two anchors: +-20 around level 127 at
// 30 Hz is strong flicker (visibility ratio ~5-6), and full-contrast 60 Hz
// sits at threshold (large bright 60 Hz fields are borderline, as CRT
// experience showed).
constexpr double cff_to_corner = 1.0;

// Internal filter rate (Hz): display output is zero-order-held and the
// retina integrates continuously, so the cascade runs at >= this rate with
// the frame value held between display samples.
constexpr double min_internal_rate_hz = 960.0;

// Corner of the slow adaptation path that is subtracted (Hz).
constexpr double adapt_cutoff_hz = 2.0;

// Exponent of the amplitude threshold vs. luminance: negative means
// brighter scenes reveal smaller ripples.
constexpr double threshold_luminance_exponent = -0.25;

double clamped_luminance(double luminance)
{
    // Pixel level 1 is the darkest adaptation state we model; log10 below
    // that is meaningless for an 8-bit display.
    return std::max(luminance, 1.0);
}

int oversample_factor(double sample_rate_hz)
{
    return std::max(1, static_cast<int>(std::ceil(min_internal_rate_hz / sample_rate_hz)));
}

} // namespace

double cff_hz(const Observer& observer, double luminance)
{
    const double l = clamped_luminance(luminance);
    const double cff = observer.cff_ref_hz + ferry_porter_slope_hz * std::log10(l / luminance_ref);
    return std::clamp(cff, 20.0, 70.0);
}

double corner_frequency_hz(const Observer& observer, double luminance)
{
    return cff_hz(observer, luminance) / cff_to_corner;
}

double amplitude_threshold(const Observer& observer, double luminance)
{
    const double l = clamped_luminance(luminance);
    const double scale = std::pow(l / luminance_ref, threshold_luminance_exponent);
    // Cap the low-luminance desensitization: even dark scenes reveal large
    // ripples.
    return observer.amp_threshold * std::clamp(scale, 0.4, 3.0);
}

double perceptual_gain(const Observer& observer, double luminance, double frequency_hz,
                       double sample_rate_hz)
{
    util::expects(frequency_hz >= 0.0, "perceptual_gain frequency must be non-negative");
    util::expects(sample_rate_hz > 0.0, "perceptual_gain sample rate must be positive");
    const double internal_rate = sample_rate_hz * oversample_factor(sample_rate_hz);
    const dsp::Exponential_cascade fast(corner_frequency_hz(observer, luminance), cascade_stages,
                                        internal_rate);
    const dsp::Exponential_cascade slow(adapt_cutoff_hz, 1, internal_rate);
    const auto h_fast = fast.response_at(frequency_hz);
    const auto h_slow = slow.response_at(frequency_hz);
    // Zero-order-hold droop of the display: a sinusoid at f held at the
    // display rate loses sinc(pi f / fs) of its amplitude.
    double zoh = 1.0;
    if (frequency_hz > 0.0) {
        const double x = std::numbers::pi * frequency_hz / sample_rate_hz;
        zoh = std::fabs(std::sin(x) / x);
    }
    return std::abs(h_fast * (1.0 - h_slow)) * zoh;
}

Perceptual_filter::Perceptual_filter(const Observer& observer, double adapt_luminance,
                                     double sample_rate_hz)
    : oversample_(oversample_factor(sample_rate_hz)),
      fast_(corner_frequency_hz(observer, adapt_luminance), cascade_stages,
            sample_rate_hz * oversample_),
      slow_(adapt_cutoff_hz, 1, sample_rate_hz * oversample_)
{
}

double Perceptual_filter::step(double luminance_sample)
{
    // The display holds each frame (zero-order hold); the retina filters
    // the held value at the internal rate. Adaptation then subtracts the
    // slow component of the *perceived* signal: gradual luminance drift is
    // tracked and cancelled, fast residuals pass through.
    double out = 0.0;
    for (int i = 0; i < oversample_; ++i) {
        const double fast = fast_.step(luminance_sample);
        out = fast - slow_.step(fast);
    }
    return out;
}

void Perceptual_filter::prime(double luminance)
{
    fast_.prime(luminance);
    slow_.prime(luminance);
}

double perceived_peak_amplitude(const Observer& observer, std::span<const double> waveform,
                                double sample_rate_hz, double adapt_luminance,
                                double warmup_seconds)
{
    util::expects(sample_rate_hz > 0.0, "sample rate must be positive");
    util::expects(warmup_seconds >= 0.0, "warmup must be non-negative");
    Perceptual_filter filter(observer, adapt_luminance, sample_rate_hz);
    filter.prime(adapt_luminance);
    const auto warmup =
        static_cast<std::size_t>(warmup_seconds * sample_rate_hz);
    double peak = 0.0;
    for (std::size_t i = 0; i < waveform.size(); ++i) {
        const double y = filter.step(waveform[i]);
        if (i >= warmup) peak = std::max(peak, std::fabs(y));
    }
    return peak;
}

double score_from_ratio(double ratio)
{
    if (!(ratio > 0.0)) return 0.0;
    return std::clamp(1.0 + std::log2(ratio), 0.0, 4.0);
}

} // namespace inframe::hvs
