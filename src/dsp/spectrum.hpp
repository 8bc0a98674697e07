// Small spectral analysis helpers: used to verify that the multiplexed
// pixel waveform concentrates its data energy at refresh_rate/2 (60 Hz on
// the paper's rig) and that smoothing suppresses low-frequency leakage.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace inframe::dsp {

// Magnitude spectrum |X(f)| / N of a real signal via direct DFT
// (signals here are a few hundred samples; O(N^2) is fine).
// Returns N/2 + 1 bins: bin k corresponds to k * sample_rate / N Hz.
std::vector<double> magnitude_spectrum(std::span<const double> signal);

// Frequency (Hz) of the largest non-DC bin.
double dominant_frequency(std::span<const double> signal, double sample_rate);

// Sum of magnitudes over bins whose frequency lies in [lo_hz, hi_hz].
double band_energy(std::span<const double> signal, double sample_rate, double lo_hz,
                   double hi_hz);

} // namespace inframe::dsp
