// Conventional exclusive-screen barcode baseline.
//
// The systems the paper positions itself against (PixNet, COBRA,
// LightSync, 1-4) occupy the display with black/white block barcodes: the
// camera gets a high-contrast channel, the human gets nothing to watch.
// This baseline quantifies that trade: full-frame barcodes streamed at the
// video cadence, decoded over the same simulated channel, plus the flicker
// score a viewer would assign to the strobing pattern.
#pragma once

#include "channel/link.hpp"
#include "coding/geometry.hpp"
#include "util/prng.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace inframe::baseline {

struct Barcode_config {
    coding::Code_geometry geometry;

    // Display refreshes each barcode frame is held for (4 at 120 Hz =
    // 30 barcode frames/s, a COBRA-like rate).
    static constexpr int hold_refreshes = 4;
    static constexpr double display_fps = 120.0;

    static constexpr float black_level = 20.0f;
    static constexpr float white_level = 235.0f;

    void validate() const;

    static constexpr double barcode_frame_rate() { return display_fps / hold_refreshes; }

    // One bit per block: no parity — conventional schemes spend capacity
    // on RS codes instead; we report raw block accuracy.
    double raw_bit_rate() const { return barcode_frame_rate() * geometry.block_count(); }
};

// Renders the barcode frame for a bit vector (block_count() bits).
img::Imagef render_barcode(const Barcode_config& config,
                           std::span<const std::uint8_t> block_bits);

// Decodes a capture into block bits by adaptive mid-level thresholding.
// Returns one bit per block.
std::vector<std::uint8_t> decode_barcode(const Barcode_config& config,
                                         const img::Imagef& capture);

struct Barcode_run_result {
    int barcode_frames = 0;
    double raw_rate_kbps = 0.0;
    double block_error_rate = 0.0; // vs transmitted truth
    double goodput_kbps = 0.0;     // correct bits per second
};

// Streams random barcodes through the simulated channel and measures
// accuracy (mirror of core::run_link_experiment for the baseline).
Barcode_run_result run_barcode_experiment(const Barcode_config& config,
                                          const channel::Display_params& display,
                                          const channel::Camera_params& camera,
                                          double duration_s,
                                          std::uint64_t data_seed = util::Prng::default_seed);

} // namespace inframe::baseline
