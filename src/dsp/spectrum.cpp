#include "dsp/spectrum.hpp"

#include "util/contract.hpp"

#include <cmath>
#include <numbers>

namespace inframe::dsp {

std::vector<double> magnitude_spectrum(std::span<const double> signal)
{
    util::expects(!signal.empty(), "magnitude_spectrum of empty signal");
    const std::size_t n = signal.size();
    const std::size_t bins = n / 2 + 1;
    std::vector<double> magnitude(bins);
    for (std::size_t k = 0; k < bins; ++k) {
        double real = 0.0;
        double imag = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            const double phase = -2.0 * std::numbers::pi * static_cast<double>(k)
                                 * static_cast<double>(t) / static_cast<double>(n);
            real += signal[t] * std::cos(phase);
            imag += signal[t] * std::sin(phase);
        }
        magnitude[k] = std::hypot(real, imag) / static_cast<double>(n);
    }
    return magnitude;
}

double dominant_frequency(std::span<const double> signal, double sample_rate)
{
    util::expects(sample_rate > 0.0, "dominant_frequency sample rate must be positive");
    const auto spectrum = magnitude_spectrum(signal);
    std::size_t best = 1;
    for (std::size_t k = 2; k < spectrum.size(); ++k) {
        if (spectrum[k] > spectrum[best]) best = k;
    }
    return static_cast<double>(best) * sample_rate / static_cast<double>(signal.size());
}

double band_energy(std::span<const double> signal, double sample_rate, double lo_hz,
                   double hi_hz)
{
    util::expects(sample_rate > 0.0, "band_energy sample rate must be positive");
    util::expects(lo_hz <= hi_hz, "band_energy requires lo <= hi");
    const auto spectrum = magnitude_spectrum(signal);
    const double bin_hz = sample_rate / static_cast<double>(signal.size());
    double total = 0.0;
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
        const double f = static_cast<double>(k) * bin_hz;
        if (f >= lo_hz && f <= hi_hz) total += spectrum[k];
    }
    return total;
}

} // namespace inframe::dsp
