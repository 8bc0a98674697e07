// Simulated observers.
//
// The paper's Fig. 6 reports flicker-perception scores (0-4) averaged over
// an 8-person panel. We replace the human panel with a population of model
// observers whose parameters are drawn from the vision literature the
// paper cites (7-11): critical flicker frequency near 40-50 Hz with
// individual spread, and individual sensitivity differences (the panel
// included "a designer and a video expert, who are more sensitive").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace inframe::hvs {

struct Observer {
    // CFF at the reference luminance (pixel level 100); population mean
    // ~45 Hz per Simonson & Brozek / Kelly.
    double cff_ref_hz = 45.0;

    // Perceived-amplitude visibility threshold at the reference luminance,
    // in pixel-value units. Smaller = more sensitive viewer. Calibrated
    // jointly with the cascade's CFF-to-corner ratio (temporal_model.cpp).
    double amp_threshold = 0.7;

    std::string label = "reference";
};

// Deterministically generates a panel of n observers. The first observer
// is always the population reference; the rest scatter around it. Two of
// the generated observers are biased sensitive (lower threshold) to mirror
// the paper's expert participants.
std::vector<Observer> make_observer_panel(int n, std::uint64_t seed);

} // namespace inframe::hvs
