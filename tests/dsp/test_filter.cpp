#include "dsp/filter.hpp"

#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace {

using namespace inframe::dsp;
using inframe::util::Contract_violation;

std::vector<double> sine(double freq_hz, double sample_rate, double seconds, double amplitude = 1.0)
{
    std::vector<double> s(static_cast<std::size_t>(seconds * sample_rate));
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = amplitude
               * std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) / sample_rate);
    }
    return s;
}

// Peak over the third quarter of the signal: past the start-up transient.
double steady_peak(std::span<const double> signal)
{
    double peak = 0.0;
    for (std::size_t i = signal.size() / 2; i < signal.size() * 3 / 4; ++i) {
        peak = std::max(peak, std::fabs(signal[i]));
    }
    return peak;
}

TEST(Butterworth, PassesDc)
{
    Butterworth_lowpass lp(30.0, 120.0);
    const std::vector<double> in(200, 2.0);
    const auto out = lp.filter(in);
    EXPECT_NEAR(out.back(), 2.0, 1e-6);
}

TEST(Butterworth, CornerIsMinus3Db)
{
    Butterworth_lowpass lp(30.0, 480.0);
    const auto in = sine(30.0, 480.0, 3.0);
    const auto out = lp.filter(in);
    EXPECT_NEAR(steady_peak(out), 1.0 / std::sqrt(2.0), 0.03);
}

TEST(Butterworth, SecondOrderRolloff)
{
    Butterworth_lowpass lp(10.0, 480.0);
    // At 4x the corner a 2nd-order filter is ~1/16 (about -24 dB).
    const auto out = lp.filter(sine(40.0, 480.0, 3.0));
    EXPECT_NEAR(steady_peak(out), 1.0 / 16.0, 0.02);
}

TEST(Butterworth, ParameterValidation)
{
    EXPECT_THROW(Butterworth_lowpass(0.0, 120.0), Contract_violation);
    EXPECT_THROW(Butterworth_lowpass(60.0, 120.0), Contract_violation);
}

TEST(ExponentialCascade, GainFormulaMatchesSimulation)
{
    Exponential_cascade cascade(24.0, 6, 480.0);
    for (const double f : {6.0, 12.0, 24.0, 48.0}) {
        cascade.reset();
        const auto out = cascade.filter(sine(f, 480.0, 4.0));
        EXPECT_NEAR(steady_peak(out), cascade.gain_at(f), 0.03 * cascade.gain_at(f) + 0.001)
            << "f=" << f;
    }
}

TEST(ExponentialCascade, SteepRolloffSeparates30From60Hz)
{
    // This separation is the entire premise of InFrame: 60 Hz artifacts
    // fuse away, 30 Hz artifacts do not. Parameters mirror the HVS model
    // (10 stages, corner near CFF, oversampled internal rate).
    Exponential_cascade cascade(46.0, 10, 960.0);
    EXPECT_GT(cascade.gain_at(30.0) / cascade.gain_at(60.0), 15.0);
}

TEST(ExponentialCascade, MoreStagesRollOffFaster)
{
    Exponential_cascade shallow(24.0, 2, 120.0);
    Exponential_cascade steep(24.0, 8, 120.0);
    const double ratio_shallow = shallow.gain_at(60.0) / shallow.gain_at(30.0);
    const double ratio_steep = steep.gain_at(60.0) / steep.gain_at(30.0);
    EXPECT_LT(ratio_steep, ratio_shallow);
}

TEST(ExponentialCascade, PrimeEliminatesTransient)
{
    Exponential_cascade cascade(10.0, 4, 120.0);
    cascade.prime(5.0);
    EXPECT_NEAR(cascade.step(5.0), 5.0, 1e-9);
}

TEST(ExponentialCascade, ParameterValidation)
{
    EXPECT_THROW(Exponential_cascade(0.0, 4, 120.0), Contract_violation);
    EXPECT_THROW(Exponential_cascade(10.0, 0, 120.0), Contract_violation);
    EXPECT_THROW(Exponential_cascade(10.0, 4, 0.0), Contract_violation);
}

TEST(ExponentialCascade, DcGainIsUnity)
{
    Exponential_cascade cascade(24.0, 6, 120.0);
    EXPECT_DOUBLE_EQ(cascade.gain_at(0.0), 1.0);
    const std::vector<double> in(600, 7.0);
    const auto out = cascade.filter(in);
    EXPECT_NEAR(out.back(), 7.0, 1e-3);
}

} // namespace
