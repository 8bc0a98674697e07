#include "hvs/temporal_model.hpp"

#include "dsp/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace {

using namespace inframe::hvs;

std::vector<double> modulated(double mean, double amplitude, double freq_hz, double fps,
                              double seconds)
{
    std::vector<double> s(static_cast<std::size_t>(fps * seconds));
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = mean
               + amplitude
                     * std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) / fps);
    }
    return s;
}

TEST(TemporalModel, FerryPorterRaisesCffWithLuminance)
{
    const Observer observer;
    EXPECT_GT(cff_hz(observer, 200.0), cff_hz(observer, 60.0));
    // One decade of luminance ~ the Ferry-Porter slope.
    EXPECT_NEAR(cff_hz(observer, 100.0) - cff_hz(observer, 10.0), ferry_porter_slope_hz, 1e-9);
}

TEST(TemporalModel, CffIsClampedToPhysiologicalRange)
{
    const Observer observer;
    EXPECT_GE(cff_hz(observer, 0.0001), 20.0);
    EXPECT_LE(cff_hz(observer, 1e9), 70.0);
}

TEST(TemporalModel, ThresholdFallsWithLuminance)
{
    const Observer observer;
    EXPECT_GT(amplitude_threshold(observer, 60.0), amplitude_threshold(observer, 200.0));
}

TEST(TemporalModel, SensitiveObserverHasLowerThreshold)
{
    Observer expert;
    expert.amp_threshold = 0.4;
    const Observer casual;
    EXPECT_LT(amplitude_threshold(expert, 100.0), amplitude_threshold(casual, 100.0));
}

TEST(TemporalModel, PerceptualGainIsBandPass)
{
    const Observer observer;
    const double g_dc = perceptual_gain(observer, 100.0, 0.0);
    const double g_mid = perceptual_gain(observer, 100.0, 10.0);
    const double g_60 = perceptual_gain(observer, 100.0, 60.0);
    EXPECT_NEAR(g_dc, 0.0, 1e-9);
    EXPECT_GT(g_mid, 10.0 * g_60);
    EXPECT_GT(g_mid, 0.2);
}

TEST(TemporalModel, SixtyHzFusesThirtyHzDoesNot)
{
    // The core premise: equal-amplitude modulation at 60 Hz is far less
    // perceptible than at 30 Hz.
    const Observer observer;
    const double g30 = perceptual_gain(observer, 127.0, 30.0);
    const double g60 = perceptual_gain(observer, 127.0, 60.0);
    EXPECT_GT(g30 / g60, 8.0);
}

TEST(TemporalModel, PerceivedAmplitudeTracksAnalyticGain)
{
    const Observer observer;
    for (const double f : {8.0, 15.0, 30.0}) {
        const auto wave = modulated(127.0, 10.0, f, 120.0, 4.0);
        const double perceived =
            perceived_peak_amplitude(observer, wave, 120.0, 127.0, 1.0);
        const double expected = 10.0 * perceptual_gain(observer, 127.0, f);
        // Phase interaction between the two paths makes the time-domain
        // peak differ from the magnitude difference; same ballpark only.
        EXPECT_GT(perceived, 0.4 * expected) << "f=" << f;
        EXPECT_LT(perceived, 2.5 * expected + 0.2) << "f=" << f;
    }
}

TEST(TemporalModel, SteadyLuminanceIsInvisible)
{
    const Observer observer;
    const std::vector<double> wave(480, 127.0);
    EXPECT_NEAR(perceived_peak_amplitude(observer, wave, 120.0, 127.0), 0.0, 1e-9);
}

TEST(TemporalModel, ComplementaryAlternationIsNearInvisible)
{
    // +-delta alternation at 60 Hz (InFrame steady-state) vs. the same
    // amplitude at 30 Hz (naive design cadence).
    const Observer observer;
    std::vector<double> inframe_wave(480);
    std::vector<double> naive_wave(480);
    for (std::size_t i = 0; i < 480; ++i) {
        inframe_wave[i] = 127.0 + (i % 2 == 0 ? 20.0 : -20.0);
        naive_wave[i] = 127.0 + (i % 4 < 2 ? 20.0 : -20.0);
    }
    const double a_inframe =
        perceived_peak_amplitude(observer, inframe_wave, 120.0, 127.0);
    const double a_naive = perceived_peak_amplitude(observer, naive_wave, 120.0, 127.0);
    EXPECT_GT(a_naive / a_inframe, 5.0);
    EXPECT_LT(a_inframe, amplitude_threshold(observer, 127.0));
}

TEST(TemporalModel, BrighterAdaptationPassesMoreHighFrequency)
{
    // Ferry-Porter consequence that drives Fig. 6 (left): the same 60 Hz
    // ripple is perceived more strongly on a brighter background.
    const Observer observer;
    const auto dim = modulated(60.0, 20.0, 60.0, 120.0, 4.0);
    const auto bright = modulated(200.0, 20.0, 60.0, 120.0, 4.0);
    const double a_dim = perceived_peak_amplitude(observer, dim, 120.0, 60.0);
    const double a_bright = perceived_peak_amplitude(observer, bright, 120.0, 200.0);
    EXPECT_GT(a_bright, a_dim);
}

TEST(ScoreFromRatio, MapsThePaperScale)
{
    EXPECT_DOUBLE_EQ(score_from_ratio(0.0), 0.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(0.5), 0.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(1.0), 1.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(2.0), 2.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(4.0), 3.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(8.0), 4.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(100.0), 4.0);
}

TEST(ScoreFromRatio, MonotoneInRatio)
{
    double prev = -1.0;
    for (double r = 0.1; r < 20.0; r *= 1.3) {
        const double s = score_from_ratio(r);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(TemporalModel, SmoothedTransitionLessVisibleThanStair)
{
    // Fig. 5 rationale at the perceptual level.
    const Observer observer;
    const std::uint8_t bits[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
    for (const int tau : {10, 14}) {
        auto srrc = inframe::dsp::pixel_waveform(bits, tau, inframe::dsp::Transition_shape::srrc);
        auto stair =
            inframe::dsp::pixel_waveform(bits, tau, inframe::dsp::Transition_shape::stair);
        for (auto& v : srrc) v = 127.0 + 20.0 * v;
        for (auto& v : stair) v = 127.0 + 20.0 * v;
        const double a_srrc = perceived_peak_amplitude(observer, srrc, 120.0, 127.0);
        const double a_stair = perceived_peak_amplitude(observer, stair, 120.0, 127.0);
        EXPECT_LT(a_srrc, a_stair) << "tau=" << tau;
    }
}

TEST(TemporalModel, LongerSmoothingCycleReducesVisibility)
{
    // Fig. 6 (right): larger tau -> smoother transitions -> lower score.
    const Observer observer;
    const std::uint8_t bits[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
    auto perceived_for_tau = [&](int tau) {
        auto wave = inframe::dsp::pixel_waveform(bits, tau);
        for (auto& v : wave) v = 127.0 + 30.0 * v;
        return perceived_peak_amplitude(observer, wave, 120.0, 127.0);
    };
    EXPECT_GT(perceived_for_tau(10), perceived_for_tau(14));
    EXPECT_GT(perceived_for_tau(14), perceived_for_tau(20));
}

} // namespace
