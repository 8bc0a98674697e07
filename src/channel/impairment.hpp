// Fault-injection impairments for the screen-camera link.
//
// The paper evaluates InFrame on a clean lab rig (fixed camera, locked
// exposure, nothing between lens and panel). Real screen-camera channels
// add capture-pipeline frame drops and stale-frame duplication, auto
// exposure hunting, hand shake, partial occlusion (a finger, a passer-by)
// and tear bands when the display and camera clocks fight — the failures
// DeepLight and Revelio engineer around. Each is modelled here as a
// deterministic, seedable `Impairment` stage; a chain of stages is
// applied to every completed capture inside Screen_camera_link.
//
// Determinism contract (same as the rest of the pipeline, see DESIGN.md
// "Threading model & determinism"): every random draw an impairment makes
// is a pure function of (chain seed, stage id, capture index). Captures
// flow through the chain serially in index order, and any per-pixel work
// is either value-parallel (pure function of the pixel) or row-sliced
// with per-row derived streams — so the impaired capture stream is
// bit-identical for every thread count.
#pragma once

#include "imgproc/image.hpp"
#include "util/prng.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace inframe::channel {

// What the chain decided about one capture.
enum class Capture_fate : std::uint8_t {
    delivered, // capture (possibly modified) reaches the receiver
    dropped,   // capture lost in the camera pipeline; receiver sees a gap
};

// One impairment stage. Stages are stateful (duplication keeps the last
// delivered frame) but their state advances only through apply() calls,
// which the link makes serially in capture order.
class Impairment {
public:
    virtual ~Impairment() = default;

    virtual const char* name() const = 0;

    // Transforms the capture in place. Returning `dropped` removes the
    // capture from the stream; later stages never see it.
    virtual Capture_fate apply(img::Imagef& image, std::int64_t capture_index) = 0;
};

// Declarative description of a chain, so experiment configs stay plain
// data. Every field at its default disables that impairment.
struct Impairment_config {
    // Root seed for all stage streams. Two chains with equal configs
    // produce bit-identical capture streams.
    std::uint64_t seed = 0x0cc1'0ded'5eed'0001ULL;

    // --- capture-pipeline timing faults -------------------------------
    // Probability a completed capture never reaches the receiver.
    double drop_probability = 0.0;
    // Probability (evaluated when not dropped) that the pipeline delivers
    // the previous capture's image again — a stale frame, as when an ISP
    // misses its deadline and repeats the last buffer.
    double duplicate_probability = 0.0;

    // --- exposure / gain drift ----------------------------------------
    // Auto-exposure hunting: multiplicative gain 1 + A*sin(2*pi*k/period)
    // and an additive black-level drift, both smooth in capture index k
    // (period: Exposure_drift_impairment::period).
    double gain_drift_amplitude = 0.0;    // A, e.g. 0.15
    double offset_drift_dn = 0.0;         // additive drift amplitude (DN)

    // --- translational camera shake -----------------------------------
    // Per-capture jitter of the screen image on the sensor, modelled as a
    // translation applied on top of the (uncalibrated) viewing homography,
    // clamped per axis to Shake_impairment::max_px. Must be finite and
    // non-negative.
    double shake_sigma_px = 0.0;          // stddev of per-axis jitter

    // --- partial occlusion --------------------------------------------
    // Total sensor-area fraction covered by `occlusion_count` fixed
    // rectangles painted at Occlusion_impairment::level (a dark
    // finger/hand).
    double occlusion_fraction = 0.0;
    int occlusion_count = 1;

    // --- rolling-shutter tear -----------------------------------------
    // Probability a capture shows a tear seam: rows below a random seam
    // row are shifted horizontally by tear_shift_px (display/camera clock
    // skew delivering a mid-scanout buffer swap). The shift is rounded to
    // whole pixels and must be finite and round to an int; a shift of the
    // row's width or more leaves only the edge value below the seam.
    double tear_probability = 0.0;
    double tear_shift_px = 8.0;

    void validate() const;
};

// Ordered chain of impairment stages.
class Impairment_chain {
public:
    Impairment_chain() = default;

    void add(std::unique_ptr<Impairment> stage);

    bool empty() const { return stages_.empty(); }

    // Runs the capture through every stage in order. Stops early when a
    // stage drops it.
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index);

private:
    std::vector<std::unique_ptr<Impairment>> stages_;
};

// Builds the chain a config describes (stages for the active impairments
// only, in a fixed canonical order: timing, exposure, shake, tear,
// occlusion — the occluder sits in front of the lens, after everything
// the sensor does).
Impairment_chain make_impairment_chain(const Impairment_config& config);

// The derived seed for one stage's draw at one capture (exposed for
// tests; this is the pure-function contract the determinism tests pin).
std::uint64_t impairment_draw_seed(std::uint64_t chain_seed, std::uint32_t stage_id,
                                   std::int64_t capture_index);

// --- concrete stages (exposed for unit tests and custom chains) -------

// Frame drop + stale-frame duplication.
class Timing_impairment final : public Impairment {
public:
    Timing_impairment(std::uint64_t seed, double drop_probability,
                      double duplicate_probability);
    const char* name() const override { return "timing"; }
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index) override;

private:
    std::uint64_t seed_;
    double drop_probability_;
    double duplicate_probability_;
    img::Imagef previous_; // last delivered image (for duplication)
};

// Smooth exposure/gain hunting.
class Exposure_drift_impairment final : public Impairment {
public:
    // Captures per hunting cycle.
    static constexpr double period = 48.0;

    Exposure_drift_impairment(double gain_amplitude, double offset_dn);
    const char* name() const override { return "exposure-drift"; }
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index) override;

    // The gain/offset applied at capture k (exposed for tests).
    double gain_at(std::int64_t capture_index) const;
    double offset_at(std::int64_t capture_index) const;

private:
    double amplitude_;
    double offset_dn_;
};

// Per-capture translational jitter. Throws Contract_violation unless sigma
// is finite and non-negative.
class Shake_impairment final : public Impairment {
public:
    // Hard clamp on the jitter per axis, pixels.
    static constexpr double max_px = 6.0;

    Shake_impairment(std::uint64_t seed, double sigma_px);
    const char* name() const override { return "shake"; }
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index) override;

    // The (dx, dy) jitter drawn for capture k (exposed for tests).
    void jitter_at(std::int64_t capture_index, double& dx, double& dy) const;

private:
    std::uint64_t seed_;
    double sigma_px_;
};

// Horizontal tear seam from display/camera clock skew. Throws
// Contract_violation unless the shift is finite and rounds to an int.
class Tear_impairment final : public Impairment {
public:
    Tear_impairment(std::uint64_t seed, double probability, double shift_px);
    const char* name() const override { return "tear"; }
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index) override;

    // Seam row for capture k; -1 when this capture shows no tear.
    int tear_row_at(std::int64_t capture_index, int height) const;

private:
    std::uint64_t seed_;
    double probability_;
    int shift_px_;
};

// Opaque rectangles in front of the lens, fixed for the whole run.
class Occlusion_impairment final : public Impairment {
public:
    // Value painted over the covered pixels.
    static constexpr float level = 8.0f;

    Occlusion_impairment(std::uint64_t seed, double fraction, int count);
    const char* name() const override { return "occlusion"; }
    Capture_fate apply(img::Imagef& image, std::int64_t capture_index) override;

private:
    std::uint64_t seed_;
    double fraction_;
    int count_;
};

} // namespace inframe::channel
