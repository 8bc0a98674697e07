// Temporal smoothing envelopes (paper 3.2, Fig. 5).
//
// When a Pixel's data bit flips between consecutive data frames, the
// amplitude of the embedded chessboard must not jump: the abrupt step
// excites the phantom-array sensitivity of the eye. InFrame shapes the
// amplitude with the functions Omega_10(t) / Omega_01(t) over the second
// half of the smoothing cycle. The paper settled on half of a square-root
// raised-cosine waveform after comparing it against linear and stair
// transitions; all three are implemented here so the ablation bench can
// reproduce that comparison.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace inframe::dsp {

enum class Transition_shape : std::uint8_t {
    srrc,   // half square-root raised-cosine (the paper's choice)
    linear, // straight ramp
    stair,  // single mid-point step
};

const char* to_string(Transition_shape shape);

// Gain of the 0 -> 1 transition at normalized time t in [0, 1].
// All shapes satisfy gain(0) == 0 and gain(1) == 1 and are monotone.
double transition_gain_01(Transition_shape shape, double t);

// Gain of the 1 -> 0 transition at normalized time t in [0, 1]
// (mirror image: gain(0) == 1, gain(1) == 0).
double transition_gain_10(Transition_shape shape, double t);

// The envelope rule for one display frame of a data frame period.
//
// One data frame occupies `tau` display frames (tau >= 2, even: the frames
// come in complementary +D/-D pairs). At frame `phase` (0 <= phase < tau)
// the amplitude holds at the bit's level for the first half and, if
// `next_bit` differs, transitions over the second half with
// t = (phase - tau/2 + 1) / (tau/2) — the paper's "switch at the tau/2-th
// iteration". t reaches 1 on the last frame, so the next period starts at
// the new level with no residual step.
double envelope_gain(std::uint8_t bit, std::uint8_t next_bit, int phase, int tau,
                     Transition_shape shape = Transition_shape::srrc);

// Per-display-frame amplitude envelope for a sequence of data bits: the
// rule above frame by frame; the last bit holds for its whole period.
//
// Returns one gain in [0, 1] per display frame, length bits.size() * tau.
std::vector<double> smoothing_envelope(std::span<const std::uint8_t> bits, int tau,
                                       Transition_shape shape = Transition_shape::srrc);

// The signed per-display-frame data waveform for one Pixel: envelope gain
// times the alternating complementary sign (+1, -1, +1, -1, ...), times the
// bit value of the owning data frame. This is the red curve of Fig. 5.
std::vector<double> pixel_waveform(std::span<const std::uint8_t> bits, int tau,
                                   Transition_shape shape = Transition_shape::srrc);

} // namespace inframe::dsp
