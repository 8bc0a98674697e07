// 1-D temporal filters.
//
// Two users: (1) the paper verifies the smoothing waveform by passing it
// through an "electronic low-pass filter" (Fig. 5) — reproduced with the
// Butterworth filter here; (2) the human-vision temporal model in
// src/hvs is built on the exponential cascade.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace inframe::dsp {

// Second-order Butterworth low-pass via bilinear transform.
class Butterworth_lowpass {
public:
    Butterworth_lowpass(double cutoff_hz, double sample_rate);

    double step(double x);
    void reset();

    // Filters a whole signal (stateful; resets first).
    std::vector<double> filter(std::span<const double> signal);

private:
    double b0_, b1_, b2_, a1_, a2_;
    double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

// Cascade of N identical first-order exponential low-pass stages: a steep
// high-frequency rolloff that approximates the human temporal contrast
// sensitivity cutoff.
class Exponential_cascade {
public:
    // corner_hz: the -3 dB frequency of a single stage.
    Exponential_cascade(double corner_hz, int stages, double sample_rate);

    double step(double x);
    void reset();

    // Sets every stage to `value`: the filter behaves as if the input had
    // been `value` forever, eliminating the start-up transient.
    void prime(double value);

    std::vector<double> filter(std::span<const double> signal);

    // Steady-state magnitude gain at the given frequency: the exact
    // discrete-time response of the cascade, |H(e^{jw})|^N.
    double gain_at(double frequency_hz) const;

    // Exact complex discrete-time response H(e^{jw})^N.
    std::complex<double> response_at(double frequency_hz) const;

    int stages() const { return static_cast<int>(state_.size()); }

private:
    double alpha_;
    double corner_hz_;
    double sample_rate_;
    std::vector<double> state_;
};

} // namespace inframe::dsp
