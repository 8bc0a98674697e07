#include "dsp/spectrum.hpp"

#include "dsp/envelope.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace {

using namespace inframe::dsp;
using inframe::util::Contract_violation;

std::vector<double> sine(double freq_hz, double sample_rate, int samples, double amplitude = 1.0)
{
    std::vector<double> s(static_cast<std::size_t>(samples));
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = amplitude
               * std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) / sample_rate);
    }
    return s;
}

TEST(Spectrum, SineConcentratesInOneBin)
{
    // 15 Hz sine at 120 Hz over 120 samples -> exactly bin 15.
    const auto s = sine(15.0, 120.0, 120);
    const auto spectrum = magnitude_spectrum(s);
    ASSERT_EQ(spectrum.size(), 61u);
    EXPECT_NEAR(spectrum[15], 0.5, 1e-9); // amplitude A appears as A/2
    EXPECT_NEAR(spectrum[14], 0.0, 1e-9);
    EXPECT_NEAR(spectrum[16], 0.0, 1e-9);
}

TEST(Spectrum, DcBinHoldsMean)
{
    const std::vector<double> s(64, 3.0);
    const auto spectrum = magnitude_spectrum(s);
    EXPECT_NEAR(spectrum[0], 3.0, 1e-9);
}

TEST(Spectrum, EmptySignalThrows)
{
    EXPECT_THROW(magnitude_spectrum({}), Contract_violation);
}

TEST(DominantFrequency, FindsTheTone)
{
    const auto s = sine(24.0, 120.0, 240);
    EXPECT_NEAR(dominant_frequency(s, 120.0), 24.0, 0.51);
}

TEST(DominantFrequency, ComplementaryAlternationSitsAtNyquistHalfRate)
{
    // The +D/-D alternation of InFrame is a 60 Hz square component on a
    // 120 Hz display.
    const std::uint8_t bits[] = {1, 1, 1, 1, 1, 1};
    const auto waveform = pixel_waveform(bits, 10);
    EXPECT_NEAR(dominant_frequency(waveform, 120.0), 60.0, 1.0);
}

TEST(BandEnergy, SplitsSpectrum)
{
    auto s = sine(10.0, 120.0, 240);
    const auto high = sine(50.0, 120.0, 240, 0.5);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] += high[i];
    const double low_band = band_energy(s, 120.0, 5.0, 15.0);
    const double high_band = band_energy(s, 120.0, 45.0, 55.0);
    EXPECT_NEAR(low_band, 0.5, 0.02);
    EXPECT_NEAR(high_band, 0.25, 0.02);
}

TEST(BandEnergy, Validation)
{
    const auto s = sine(10.0, 120.0, 64);
    EXPECT_THROW(band_energy(s, 120.0, 20.0, 10.0), Contract_violation);
}

TEST(Spectrum, SmoothedTransitionHasLessLowFrequencyEnergyThanStair)
{
    // The design rationale of Fig. 5: SRRC smoothing moves transition
    // energy out of the visible band relative to an abrupt stair switch.
    const std::uint8_t bits[] = {1, 0, 1, 0, 1, 0, 1, 0};
    const auto srrc = pixel_waveform(bits, 12, Transition_shape::srrc);
    const auto stair = pixel_waveform(bits, 12, Transition_shape::stair);
    const double srrc_low = band_energy(srrc, 120.0, 2.0, 40.0);
    const double stair_low = band_energy(stair, 120.0, 2.0, 40.0);
    EXPECT_LT(srrc_low, stair_low);
}

} // namespace
