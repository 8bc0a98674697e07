#include "channel/impairment.hpp"

#include "imgproc/pool.hpp"
#include "imgproc/warp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace inframe::channel {

namespace {

// splitmix64 finalizer: decorrelates structured (seed, stage, index)
// triples into independent Prng seeds.
std::uint64_t mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// Canonical stage ids: fixed so that adding stages to a chain never
// reshuffles another stage's stream.
enum Stage_id : std::uint32_t {
    stage_timing = 1,
    stage_exposure = 2,
    stage_shake = 3,
    stage_tear = 4,
    stage_occlusion = 5,
};

// Shared by Impairment_config::validate and the stage constructors, which
// custom chains call directly.
void check_shake(double sigma_px)
{
    util::expects(std::isfinite(sigma_px) && sigma_px >= 0.0,
                  "impairments: shake sigma must be finite and non-negative");
}

int rounded_tear_shift(double shift_px)
{
    util::expects(std::isfinite(shift_px)
                      && std::fabs(std::round(shift_px))
                             <= static_cast<double>(std::numeric_limits<int>::max()),
                  "impairments: tear shift must be finite and round to an int");
    return static_cast<int>(std::lround(shift_px));
}

} // namespace

std::uint64_t impairment_draw_seed(std::uint64_t chain_seed, std::uint32_t stage_id,
                                   std::int64_t capture_index)
{
    return mix64(mix64(chain_seed ^ (static_cast<std::uint64_t>(stage_id) << 56))
                 ^ static_cast<std::uint64_t>(capture_index));
}

void Impairment_config::validate() const
{
    util::expects(drop_probability >= 0.0 && drop_probability <= 1.0,
                  "impairments: drop probability must be in [0, 1]");
    util::expects(duplicate_probability >= 0.0 && duplicate_probability <= 1.0,
                  "impairments: duplicate probability must be in [0, 1]");
    check_shake(shake_sigma_px);
    util::expects(occlusion_fraction >= 0.0 && occlusion_fraction < 1.0,
                  "impairments: occlusion fraction must be in [0, 1)");
    util::expects(occlusion_count >= 1, "impairments: occlusion count must be positive");
    util::expects(tear_probability >= 0.0 && tear_probability <= 1.0,
                  "impairments: tear probability must be in [0, 1]");
    rounded_tear_shift(tear_shift_px);
}

void Impairment_chain::add(std::unique_ptr<Impairment> stage)
{
    util::expects(stage != nullptr, "impairment chain: stage must not be null");
    stages_.push_back(std::move(stage));
}

Capture_fate Impairment_chain::apply(img::Imagef& image, std::int64_t capture_index)
{
    for (auto& stage : stages_) {
        telemetry::Scoped_span span(stage->name());
        if (stage->apply(image, capture_index) == Capture_fate::dropped) {
            return Capture_fate::dropped;
        }
    }
    return Capture_fate::delivered;
}

Impairment_chain make_impairment_chain(const Impairment_config& config)
{
    config.validate();
    Impairment_chain chain;
    if (config.drop_probability > 0.0 || config.duplicate_probability > 0.0) {
        chain.add(std::make_unique<Timing_impairment>(config.seed, config.drop_probability,
                                                      config.duplicate_probability));
    }
    if (config.gain_drift_amplitude != 0.0 || config.offset_drift_dn != 0.0) {
        chain.add(std::make_unique<Exposure_drift_impairment>(config.gain_drift_amplitude,
                                                              config.offset_drift_dn));
    }
    if (config.shake_sigma_px > 0.0) {
        chain.add(std::make_unique<Shake_impairment>(config.seed, config.shake_sigma_px));
    }
    if (config.tear_probability > 0.0) {
        chain.add(std::make_unique<Tear_impairment>(config.seed, config.tear_probability,
                                                    config.tear_shift_px));
    }
    if (config.occlusion_fraction > 0.0) {
        chain.add(std::make_unique<Occlusion_impairment>(config.seed, config.occlusion_fraction,
                                                         config.occlusion_count));
    }
    return chain;
}

// --- timing -----------------------------------------------------------

Timing_impairment::Timing_impairment(std::uint64_t seed, double drop_probability,
                                     double duplicate_probability)
    : seed_(seed), drop_probability_(drop_probability),
      duplicate_probability_(duplicate_probability)
{
}

Capture_fate Timing_impairment::apply(img::Imagef& image, std::int64_t capture_index)
{
    util::Prng prng(impairment_draw_seed(seed_, stage_timing, capture_index));
    if (prng.next_double() < drop_probability_) {
        telemetry::emit_event({"impairment", "drop", capture_index, 0.0});
        return Capture_fate::dropped;
    }
    if (duplicate_probability_ > 0.0) {
        const bool duplicate = prng.next_double() < duplicate_probability_;
        if (duplicate && !previous_.empty() && previous_.same_shape(image)) {
            telemetry::emit_event({"impairment", "duplicate", capture_index, 0.0});
            // Stale delivery: the pipeline repeats the previous buffer in
            // this capture's slot. The stale image stays `previous_` so a
            // run of duplicates repeats the same frame, as real ISPs do.
            std::copy(previous_.values().begin(), previous_.values().end(),
                      image.values().begin());
            return Capture_fate::delivered;
        }
        // Fresh delivery: remember it for the next stale slot.
        if (!previous_.same_shape(image)) {
            previous_ = img::Imagef(image.width(), image.height(), image.channels());
        }
        std::copy(image.values().begin(), image.values().end(), previous_.values().begin());
    }
    return Capture_fate::delivered;
}

// --- exposure drift ---------------------------------------------------

Exposure_drift_impairment::Exposure_drift_impairment(double gain_amplitude, double offset_dn)
    : amplitude_(gain_amplitude), offset_dn_(offset_dn)
{
}

double Exposure_drift_impairment::gain_at(std::int64_t capture_index) const
{
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(capture_index) / period;
    return 1.0 + amplitude_ * std::sin(phase);
}

double Exposure_drift_impairment::offset_at(std::int64_t capture_index) const
{
    // Offset hunts at a slower, incommensurate cadence so gain and offset
    // extremes do not always coincide.
    const double phase =
        2.0 * std::numbers::pi * static_cast<double>(capture_index) / (period * 1.7);
    return offset_dn_ * std::sin(phase);
}

Capture_fate Exposure_drift_impairment::apply(img::Imagef& image, std::int64_t capture_index)
{
    const auto gain = static_cast<float>(gain_at(capture_index));
    const auto offset = static_cast<float>(offset_at(capture_index));
    static const int gain_metric =
        telemetry::intern_metric("impairment.gain", telemetry::Metric_kind::gauge);
    telemetry::gauge_set(gain_metric, gain);
    if (gain == 1.0f && offset == 0.0f) return Capture_fate::delivered;
    // Pure per-value transform: parallel over rows, deterministic at any
    // thread count.
    util::parallel_for(0, image.height(), 32, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t y = y0; y < y1; ++y) {
            for (auto& v : image.row(static_cast<int>(y))) {
                v = std::clamp(v * gain + offset, 0.0f, 255.0f);
            }
        }
    });
    return Capture_fate::delivered;
}

// --- shake ------------------------------------------------------------

Shake_impairment::Shake_impairment(std::uint64_t seed, double sigma_px)
    : seed_(seed), sigma_px_(sigma_px)
{
    check_shake(sigma_px);
}

void Shake_impairment::jitter_at(std::int64_t capture_index, double& dx, double& dy) const
{
    util::Prng prng(impairment_draw_seed(seed_, stage_shake, capture_index));
    dx = std::clamp(prng.next_gaussian(0.0, sigma_px_), -max_px, max_px);
    dy = std::clamp(prng.next_gaussian(0.0, sigma_px_), -max_px, max_px);
}

Capture_fate Shake_impairment::apply(img::Imagef& image, std::int64_t capture_index)
{
    double dx = 0.0;
    double dy = 0.0;
    jitter_at(capture_index, dx, dy);
    static const int shake_metric =
        telemetry::intern_metric("impairment.shake_px", telemetry::Metric_kind::histogram);
    telemetry::histogram_record(shake_metric, std::hypot(dx, dy));
    if (dx == 0.0 && dy == 0.0) return Capture_fate::delivered;
    // The jitter composes with the viewing homography: the screen image
    // lands translated on the sensor, and the decoder's calibration does
    // not know about it — that mismatch is the impairment.
    img::Imagef shaken =
        img::warp_perspective(image, img::Homography::translation(dx, dy), image.width(),
                              image.height());
    img::Frame_pool::instance().recycle(std::move(image));
    image = std::move(shaken);
    return Capture_fate::delivered;
}

// --- tear -------------------------------------------------------------

Tear_impairment::Tear_impairment(std::uint64_t seed, double probability, double shift_px)
    : seed_(seed), probability_(probability),
      shift_px_(rounded_tear_shift(shift_px))
{
}

int Tear_impairment::tear_row_at(std::int64_t capture_index, int height) const
{
    util::Prng prng(impairment_draw_seed(seed_, stage_tear, capture_index));
    if (prng.next_double() >= probability_) return -1;
    // Keep the seam away from the extreme edges so it always bisects.
    const int lo = height / 8;
    const int hi = height - height / 8;
    if (hi <= lo) return -1;
    return lo + static_cast<int>(prng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

Capture_fate Tear_impairment::apply(img::Imagef& image, std::int64_t capture_index)
{
    const int seam = tear_row_at(capture_index, image.height());
    if (seam < 0 || shift_px_ == 0) return Capture_fate::delivered;
    telemetry::emit_event({"impairment", "tear", capture_index, static_cast<double>(seam)});
    const int channels = image.channels();
    const int row_values = image.width() * channels;
    // A shift of a row or more leaves only edge-clamped values, as a
    // shift of width - 1 does; the copy loops below stay inside the row.
    const int shift_values =
        std::clamp(shift_px_, 1 - image.width(), image.width() - 1) * channels;
    // Rows below the seam shift horizontally (edge-clamped, each channel
    // from the edge pixel's own channel): the bottom band came from the
    // next scanout position of a mid-swap buffer.
    util::parallel_for(seam, image.height(), 32, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            auto row = image.row(static_cast<int>(yy));
            if (shift_values > 0) {
                for (int i = row_values - 1; i >= shift_values; --i) {
                    row[static_cast<std::size_t>(i)] =
                        row[static_cast<std::size_t>(i - shift_values)];
                }
                for (int i = 0; i < shift_values; ++i) {
                    row[static_cast<std::size_t>(i)] =
                        row[static_cast<std::size_t>(shift_values + i % channels)];
                }
            } else {
                for (int i = 0; i < row_values + shift_values; ++i) {
                    row[static_cast<std::size_t>(i)] =
                        row[static_cast<std::size_t>(i - shift_values)];
                }
                for (int i = row_values + shift_values; i < row_values; ++i) {
                    row[static_cast<std::size_t>(i)] = row[static_cast<std::size_t>(
                        row_values + shift_values - channels + i % channels)];
                }
            }
        }
    });
    return Capture_fate::delivered;
}

// --- occlusion --------------------------------------------------------

Occlusion_impairment::Occlusion_impairment(std::uint64_t seed, double fraction, int count)
    : seed_(seed), fraction_(fraction), count_(count)
{
    util::expects(count >= 1, "occlusion: rectangle count must be positive");
}

Capture_fate Occlusion_impairment::apply(img::Imagef& image, std::int64_t /*capture_index*/)
{
    const int w = image.width();
    const int h = image.height();
    const double area_per_rect =
        fraction_ * static_cast<double>(w) * static_cast<double>(h) / count_;
    for (int rect = 0; rect < count_; ++rect) {
        // Placement is a pure function of (seed, rect): the occluder is a
        // physical object, fixed for the whole run.
        util::Prng prng(mix64(mix64(seed_ ^ (static_cast<std::uint64_t>(stage_occlusion) << 56))
                              ^ static_cast<std::uint64_t>(rect)));
        const double aspect = prng.next_double(0.5, 2.0);
        const int rect_w = std::clamp(
            static_cast<int>(std::lround(std::sqrt(area_per_rect * aspect))), 1, w);
        const int rect_h = std::clamp(
            static_cast<int>(std::lround(area_per_rect / rect_w)), 1, h);
        const double cx = prng.next_double(0.0, static_cast<double>(w));
        const double cy = prng.next_double(0.0, static_cast<double>(h));
        const int x0 = std::clamp(static_cast<int>(std::lround(cx)) - rect_w / 2, 0, w - 1);
        const int y0 = std::clamp(static_cast<int>(std::lround(cy)) - rect_h / 2, 0, h - 1);
        const int x1 = std::min(x0 + rect_w, w);
        const int y1 = std::min(y0 + rect_h, h);
        util::parallel_for(y0, y1, 32, [&](std::int64_t yy0, std::int64_t yy1) {
            for (std::int64_t y = yy0; y < yy1; ++y) {
                auto row = image.row(static_cast<int>(y));
                for (int x = x0; x < x1; ++x) {
                    for (int c = 0; c < image.channels(); ++c) {
                        row[static_cast<std::size_t>(x * image.channels() + c)] = level;
                    }
                }
            }
        });
    }
    return Capture_fate::delivered;
}

} // namespace inframe::channel
