// Figure 5 — the temporal smoothing waveform and its low-pass response.
//
// The paper plots the amplitude waveform of one Pixel across a bit
// sequence (red solid curve) and the output of an electronic low-pass
// filter (blue dotted curve), arguing that the SRRC-smoothed transition
// leaves no visible low-frequency residue. This bench prints both series
// and quantifies the spectral claim for all three transition shapes, plus
// the perceptual-model verdict (3.2's verification experiment).

#include "bench_common.hpp"
#include "dsp/envelope.hpp"
#include "dsp/filter.hpp"
#include "dsp/spectrum.hpp"
#include "hvs/temporal_model.hpp"

#include <cstdio>

int main(int argc, char** argv)
{
    using namespace inframe;
    const auto args = bench::parse_args(argc, argv);
    telemetry::Session telemetry_session(args.telemetry);

    bench::print_header("Figure 5: temporal smoothing waveform + low-pass verification",
                        "the SRRC envelope transitions between data frames without exciting "
                        "the visible band; an electronic low-pass of the waveform stays flat");

    constexpr int tau = 12;
    constexpr double fps = 120.0;
    const std::uint8_t bits[] = {1, 1, 0, 1, 0, 0, 1, 1, 0, 1};

    // --- The Fig. 5 curves (SRRC) ---------------------------------------
    const auto waveform = dsp::pixel_waveform(bits, tau, dsp::Transition_shape::srrc);
    // "Electronic low-pass filter": 2nd-order Butterworth at 20 Hz.
    dsp::Butterworth_lowpass electronic(20.0, fps);
    std::vector<double> luminance(waveform.size());
    for (std::size_t i = 0; i < waveform.size(); ++i) luminance[i] = 127.0 + 20.0 * waveform[i];
    const auto filtered = electronic.filter(luminance);

    std::printf("series (CSV): frame,time_s,amplitude_waveform,lowpass_output\n");
    for (std::size_t i = 0; i < waveform.size(); ++i) {
        std::printf("%zu,%.5f,%.4f,%.3f\n", i, static_cast<double>(i) / fps, waveform[i],
                    filtered[i]);
    }
    std::printf("\n");

    // --- Quantified claims per transition shape --------------------------
    util::Table table({"transition", "max lowpass deviation", "2-40 Hz band energy",
                       "perceived amplitude (px)", "vs threshold"});
    const hvs::Observer observer;
    const double threshold = hvs::amplitude_threshold(observer, 127.0);
    for (const auto shape : {dsp::Transition_shape::srrc, dsp::Transition_shape::linear,
                             dsp::Transition_shape::stair}) {
        auto wave = dsp::pixel_waveform(bits, tau, shape);
        std::vector<double> lum(wave.size());
        for (std::size_t i = 0; i < wave.size(); ++i) lum[i] = 127.0 + 20.0 * wave[i];
        dsp::Butterworth_lowpass lp(20.0, fps);
        const auto out = lp.filter(lum);
        double max_dev = 0.0;
        for (std::size_t i = wave.size() / 4; i < out.size(); ++i) {
            max_dev = std::max(max_dev, std::fabs(out[i] - 127.0));
        }
        const double band = dsp::band_energy(wave, fps, 2.0, 40.0) * 20.0;
        const double perceived =
            hvs::perceived_peak_amplitude(observer, lum, fps, 127.0);
        table.add_row({std::string(dsp::to_string(shape)), max_dev, band, perceived,
                       std::string(perceived < threshold ? "below (imperceptible)"
                                                         : "ABOVE (visible)")});
    }
    bench::emit_table(args, "fig5_waveform", table);

    // --- The 60 Hz carrier claim -----------------------------------------
    const std::uint8_t steady[] = {1, 1, 1, 1, 1, 1, 1, 1};
    const auto carrier = dsp::pixel_waveform(steady, tau);
    std::printf("steady-state carrier: dominant frequency %.1f Hz (CFF is 40-50 Hz; the\n"
                "+-D alternation lives above it and fuses away)\n",
                dsp::dominant_frequency(carrier, fps));
    return 0;
}
