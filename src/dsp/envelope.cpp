#include "dsp/envelope.hpp"

#include "util/contract.hpp"

#include <cmath>
#include <numbers>

namespace inframe::dsp {

const char* to_string(Transition_shape shape)
{
    switch (shape) {
    case Transition_shape::srrc: return "srrc";
    case Transition_shape::linear: return "linear";
    case Transition_shape::stair: return "stair";
    }
    return "unknown";
}

double transition_gain_01(Transition_shape shape, double t)
{
    util::expects(t >= 0.0 && t <= 1.0, "transition gain time must be in [0,1]");
    switch (shape) {
    case Transition_shape::srrc:
        // Half of the square-root raised-cosine ramp: sqrt((1-cos(pi t))/2)
        // == sin(pi t / 2). Smooth approach into the new level.
        return std::sin(std::numbers::pi * t / 2.0);
    case Transition_shape::linear: return t;
    case Transition_shape::stair: return t < 0.5 ? 0.0 : 1.0;
    }
    return t;
}

double transition_gain_10(Transition_shape shape, double t)
{
    return transition_gain_01(shape, 1.0 - t);
}

double envelope_gain(std::uint8_t bit, std::uint8_t next_bit, int phase, int tau,
                     Transition_shape shape)
{
    util::expects(tau >= 2 && tau % 2 == 0,
                  "smoothing cycle tau must be an even number of display frames");
    util::expects(phase >= 0 && phase < tau, "envelope phase must be in [0, tau)");
    const int half = tau / 2;
    if (bit == next_bit || phase < half) return bit ? 1.0 : 0.0;
    const double t = static_cast<double>(phase - half + 1) / static_cast<double>(half);
    return bit ? transition_gain_10(shape, t) : transition_gain_01(shape, t);
}

std::vector<double> smoothing_envelope(std::span<const std::uint8_t> bits, int tau,
                                       Transition_shape shape)
{
    util::expects(tau >= 2 && tau % 2 == 0,
                  "smoothing cycle tau must be an even number of display frames");
    std::vector<double> envelope;
    envelope.reserve(bits.size() * static_cast<std::size_t>(tau));
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const std::uint8_t next = i + 1 < bits.size() ? bits[i + 1] : bits[i];
        for (int k = 0; k < tau; ++k) {
            envelope.push_back(envelope_gain(bits[i], next, k, tau, shape));
        }
    }
    return envelope;
}

std::vector<double> pixel_waveform(std::span<const std::uint8_t> bits, int tau,
                                   Transition_shape shape)
{
    auto waveform = smoothing_envelope(bits, tau, shape);
    // Complementary +D / -D alternation at half the display rate.
    for (std::size_t j = 0; j < waveform.size(); ++j) {
        if (j % 2 == 1) waveform[j] = -waveform[j];
    }
    return waveform;
}

} // namespace inframe::dsp
