// InFrame decoder: demultiplexes data from captured frames (paper 3.3).
//
// Per capture, for every Block: smooth the block, subtract the smoothed
// content from the original, and sum the absolute difference — the
// chessboard (bit 1) leaves a large high-frequency residual that ordinary
// video content does not. "To work around high-texture areas we further
// remove the mean absolute difference": here implemented as subtracting
// the same residual measured one octave lower, which natural texture
// populates and the chessboard (living exactly at the Pixel-grid Nyquist
// frequency) does not.
//
// Captures are grouped by the data frame on air at their exposure time
// (the receiver knows tau and the display rate; frame-level sync is
// assumed, as in the paper's strawman). Only captures inside the stable
// first half of the tau cycle vote — the second half may be mid-transition
// to the next data frame. A block whose aggregated metric lands in the
// hysteresis band around the threshold is reported `unknown`, which makes
// its whole GOB unavailable (the paper's "available GOB" notion).
#pragma once

#include "coding/parity.hpp"
#include "core/config.hpp"
#include "imgproc/image.hpp"
#include "imgproc/warp.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace inframe::core {

// Block-bit detector.
//  - noise_level: the paper's scheme — smooth, subtract, sum |difference|
//    (3.3). Content-agnostic but leaks on high-texture video.
//  - matched: correlate the capture against the known chessboard template
//    (the demultiplexer knows the Pixel grid). Random texture and sensor
//    noise decorrelate, so this survives much busier content; it is the
//    "more effective scheme" the paper's 5 asks for and is compared in
//    bench_ablation_params.
enum class Detector : std::uint8_t { noise_level, matched };

const char* to_string(Detector detector);

struct Decoder_params {
    coding::Code_geometry geometry; // screen-space layout

    Detector detector = Detector::noise_level;

    // Calibrated perspective of the capture (sensor -> screen coordinates,
    // matching channel::Camera_params::sensor_to_screen). Requires the
    // matched detector: block regions become quadrilaterals that the
    // per-pixel template mapping handles naturally.
    std::optional<img::Homography> capture_to_screen;

    // Capture resolution (the camera's, e.g. 1280x720 for a 1920x1080
    // screen).
    int capture_width = 1280;
    int capture_height = 720;

    int tau = 12;
    double display_fps = 120.0;

    // Subtract the octave-lower residual (texture compensation).
    bool texture_compensation = true;

    // Fraction around the threshold treated as "no confident decision".
    double hysteresis = 0.2;

    // Captures whose mid-exposure phase within the tau cycle is at or
    // beyond this fraction are ignored (transition region).
    static constexpr double stable_fraction = 0.5;

    // Erasure-aware decoding. Blocks flagged unreliable — metric inside
    // the hysteresis band, or mean level far below the frame's median
    // (an occluder in front of the lens) — become erasures instead of
    // hard bits, and the GOB parity layer fills single-erasure GOBs
    // (decode_gob_parity erasure_fill). Off reproduces the paper's
    // hard-decision strawman.
    bool erasure_aware = false;

    // Hard cap on the number of idle data frames finalized per capture:
    // a capture timestamped far in the future would otherwise emit one
    // result per skipped frame (unbounded work from one bad input). The
    // region beyond the cap is skipped silently.
    static constexpr std::int64_t max_frame_gap = 1024;

    void validate() const;
};

struct Data_frame_result {
    std::int64_t data_frame_index = 0;
    int captures_used = 0;
    double threshold = 0.0;
    std::vector<coding::Block_decision> decisions;

    // Parallel to decisions (erasure-aware mode): 1 where the block was
    // flagged as an erasure (ambiguous metric or occlusion) rather than
    // decided. Empty when erasure_aware is off.
    std::vector<std::uint8_t> erasures;

    // Blocks the occlusion mask flagged (subset of erasures).
    int occluded_blocks = 0;

    coding::Frame_decode_result gob;
};

class Inframe_decoder {
public:
    explicit Inframe_decoder(Decoder_params params);

    // Feeds a capture with the wall-clock time its exposure began.
    // Returns data frames finalized by this capture (zero or one, in
    // order). A capture whose block metrics are non-finite (NaN or Inf
    // pixels) throws Contract_violation and leaves the decoder unchanged.
    std::vector<Data_frame_result> push_capture(const img::Imagef& capture,
                                                double start_time);

    // Finalizes the data frame currently being accumulated (end of
    // stream).
    std::optional<Data_frame_result> flush();

    // Per-block residual metrics for one capture (exposed for analysis
    // and benches).
    std::vector<double> block_metrics(const img::Imagef& capture) const;

    // Otsu split of a metric vector. bimodal is false when the two
    // classes are not separated (no detectable signal population). Throws
    // Contract_violation on a non-finite metric.
    struct Threshold_split {
        double value = 0.0;
        bool bimodal = false;
        // Separation quality (upper mean - lower mean) / pooled sigma.
        double dprime = 0.0;
    };
    Threshold_split split_metrics(std::span<const double> metrics) const;

    // Sync-layer state reported on telemetry frame records: -1 = sync
    // assumed/unknown (the paper's strawman), 0 = searching, 1 = locked
    // at `offset_s`. Synced_decoder keeps this current; plain decoders
    // stay at the default -1. Observational only — decoding ignores it.
    void set_sync_context(int locked, double offset_s);

    const Decoder_params& params() const { return params_; }

private:
    Data_frame_result finalize();
    // The capture's luminance, on which the pattern is demodulated: the
    // capture itself when it has one channel, else its luma in `gray`.
    // Throws Contract_violation on a capture of the wrong size.
    const img::Imagef& luma_of(const img::Imagef& capture, img::Imagef& gray) const;
    std::vector<double> luma_metrics(const img::Imagef& luma) const;
    // Per-block mean captured level of a luma capture. The occlusion mask
    // is built from these: an opaque occluder pulls whole blocks far below
    // the frame's median level.
    std::vector<double> block_levels(const img::Imagef& luma) const;
    std::vector<double> noise_level_metrics(const img::Imagef& capture) const;
    std::vector<double> matched_metrics(const img::Imagef& capture) const;
    void build_template();

    Decoder_params params_;
    double scale_x_;
    double scale_y_;
    int smooth_radius_;

    // Matched-filter tables (one entry per sensor pixel): owning block
    // (-1 = outside/border) and the quadrature phases of the chessboard's
    // two diagonal fundamentals at that pixel. Correlating against
    // cos/sin of both makes the detector invariant to sub-period
    // misalignment of the calibration.
    std::vector<std::int32_t> block_of_pixel_;
    std::vector<float> cos1_, sin1_, cos2_, sin2_;

    std::int64_t current_frame_ = 0;
    std::vector<double> metric_sum_;
    std::vector<double> level_sum_; // erasure-aware mode only
    int captures_in_frame_ = 0;
    int sync_locked_ = -1;          // telemetry only; see set_sync_context
    double sync_offset_s_ = 0.0;
};

} // namespace inframe::core
