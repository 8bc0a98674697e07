#include "dsp/filter.hpp"

#include "util/contract.hpp"

#include <cmath>
#include <numbers>

namespace inframe::dsp {

Butterworth_lowpass::Butterworth_lowpass(double cutoff_hz, double sample_rate)
{
    util::expects(sample_rate > 0.0, "Butterworth sample rate must be positive");
    util::expects(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
                  "Butterworth cutoff must be below Nyquist");
    // Bilinear transform with frequency pre-warping.
    const double k = std::tan(std::numbers::pi * cutoff_hz / sample_rate);
    const double sqrt2 = std::numbers::sqrt2;
    const double norm = 1.0 / (1.0 + sqrt2 * k + k * k);
    b0_ = k * k * norm;
    b1_ = 2.0 * b0_;
    b2_ = b0_;
    a1_ = 2.0 * (k * k - 1.0) * norm;
    a2_ = (1.0 - sqrt2 * k + k * k) * norm;
}

double Butterworth_lowpass::step(double x)
{
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
}

void Butterworth_lowpass::reset()
{
    x1_ = x2_ = y1_ = y2_ = 0.0;
}

std::vector<double> Butterworth_lowpass::filter(std::span<const double> signal)
{
    reset();
    std::vector<double> out(signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i) out[i] = step(signal[i]);
    return out;
}

Exponential_cascade::Exponential_cascade(double corner_hz, int stages, double sample_rate)
    : corner_hz_(corner_hz), sample_rate_(sample_rate)
{
    util::expects(sample_rate > 0.0, "cascade sample rate must be positive");
    util::expects(corner_hz > 0.0, "cascade corner frequency must be positive");
    util::expects(stages >= 1, "cascade needs at least one stage");
    // First-order exponential smoothing: alpha = dt / (RC + dt) with
    // RC = 1 / (2 pi fc).
    const double dt = 1.0 / sample_rate;
    const double rc = 1.0 / (2.0 * std::numbers::pi * corner_hz);
    alpha_ = dt / (rc + dt);
    state_.assign(static_cast<std::size_t>(stages), 0.0);
}

double Exponential_cascade::step(double x)
{
    double value = x;
    for (auto& s : state_) {
        s += alpha_ * (value - s);
        value = s;
    }
    return value;
}

void Exponential_cascade::reset()
{
    for (auto& s : state_) s = 0.0;
}

void Exponential_cascade::prime(double value)
{
    for (auto& s : state_) s = value;
}

std::vector<double> Exponential_cascade::filter(std::span<const double> signal)
{
    reset();
    std::vector<double> out(signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i) out[i] = step(signal[i]);
    return out;
}

std::complex<double> Exponential_cascade::response_at(double frequency_hz) const
{
    // One stage is y[n] = y[n-1] + alpha (x[n] - y[n-1]):
    // H(z) = alpha / (1 - (1-alpha) z^-1).
    const double omega = 2.0 * std::numbers::pi * frequency_hz / sample_rate_;
    const std::complex<double> z_inverse = std::polar(1.0, -omega);
    const std::complex<double> per_stage = alpha_ / (1.0 - (1.0 - alpha_) * z_inverse);
    return std::pow(per_stage, stages());
}

double Exponential_cascade::gain_at(double frequency_hz) const
{
    return std::abs(response_at(frequency_hz));
}

} // namespace inframe::dsp
