#include "core/decoder.hpp"

#include "imgproc/filter.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace inframe::core {

namespace {

// Minimum upper-class metric for a split to count as signal: guards
// against Otsu "finding" a split inside the noise floor when the pattern
// has been destroyed entirely (e.g. defocused capture).
constexpr double min_signal_level = 0.6;

// Minimum separation quality d' = (m1 - m0) / pooled-sigma for the split
// to be trusted. Classes closer than this misclassify at rates parity
// cannot contain, so the row is reported unknown instead.
constexpr double min_separation_dprime = 3.0;

// Occlusion mask (erasure-aware mode): a block whose mean captured level
// is below max(occlusion_level_floor, occlusion_level_fraction * median
// block level) is treated as occluded.
constexpr double occlusion_level_fraction = 0.35;
constexpr double occlusion_level_floor = 16.0;

bool all_finite(std::span<const double> values)
{
    return std::ranges::all_of(values, [](double v) { return std::isfinite(v); });
}

} // namespace

void Decoder_params::validate() const
{
    geometry.validate();
    util::expects(capture_width > 0 && capture_height > 0,
                  "decoder: capture size must be positive");
    util::expects(tau >= 2 && tau % 2 == 0, "decoder: tau must be even and >= 2");
    util::expects(display_fps > 0.0, "decoder: display rate must be positive");
    util::expects(hysteresis >= 0.0 && hysteresis < 1.0, "decoder: hysteresis must be in [0, 1)");
}

const char* to_string(Detector detector)
{
    switch (detector) {
    case Detector::noise_level: return "noise-level";
    case Detector::matched: return "matched-filter";
    }
    return "unknown";
}

Inframe_decoder::Inframe_decoder(Decoder_params params) : params_(std::move(params))
{
    params_.validate();
    scale_x_ = static_cast<double>(params_.capture_width) / params_.geometry.screen_width;
    scale_y_ = static_cast<double>(params_.capture_height) / params_.geometry.screen_height;
    // The chessboard's cell is one Pixel (p Element pixels); on the sensor
    // that is p * scale pixels. Smoothing over that scale flattens the
    // pattern.
    smooth_radius_ =
        std::max(1, static_cast<int>(std::lround(params_.geometry.pixel_size * scale_x_ * 0.75)));
    metric_sum_.assign(static_cast<std::size_t>(params_.geometry.block_count()), 0.0);
    level_sum_.assign(static_cast<std::size_t>(params_.geometry.block_count()), 0.0);
    util::expects(!params_.capture_to_screen || params_.detector == Detector::matched,
                  "decoder: perspective capture requires the matched detector");
    if (params_.detector == Detector::matched) build_template();
}

void Inframe_decoder::build_template()
{
    const auto& g = params_.geometry;
    const auto pixel_count = static_cast<std::size_t>(params_.capture_width)
                             * static_cast<std::size_t>(params_.capture_height);
    block_of_pixel_.assign(pixel_count, -1);
    cos1_.assign(pixel_count, 0.0f);
    sin1_.assign(pixel_count, 0.0f);
    cos2_.assign(pixel_count, 0.0f);
    sin2_.assign(pixel_count, 0.0f);
    // Each sensor row writes its own slice of the template tables, so the
    // trigonometric fill parallelizes over rows with disjoint outputs.
    util::parallel_for(0, params_.capture_height, 16, [&](std::int64_t cy0, std::int64_t cy1) {
    for (int cy = static_cast<int>(cy0); cy < static_cast<int>(cy1); ++cy) {
        for (int cx = 0; cx < params_.capture_width; ++cx) {
            // Sensor pixel centre mapped back to screen coordinates —
            // through the calibrated homography when viewing at an angle,
            // otherwise through the axis-aligned scale.
            double sx = 0.0;
            double sy = 0.0;
            if (params_.capture_to_screen) {
                params_.capture_to_screen->apply(cx + 0.5, cy + 0.5, sx, sy);
                sx -= 0.5;
                sy -= 0.5;
            } else {
                sx = (cx + 0.5) / scale_x_ - 0.5;
                sy = (cy + 0.5) / scale_y_ - 0.5;
            }
            // Continuous Pixel coordinates within the active area.
            const double pxf = (sx - g.origin_x()) / g.pixel_size;
            const double pyf = (sy - g.origin_y()) / g.pixel_size;
            const int px = static_cast<int>(std::floor(pxf));
            const int py = static_cast<int>(std::floor(pyf));
            if (px < 0 || py < 0 || px >= g.blocks_x * g.block_pixels
                || py >= g.blocks_y * g.block_pixels) {
                continue;
            }
            // Interior Pixels only: skip the outermost ring of each block
            // so neighbouring blocks do not bleed in.
            const int lx = px % g.block_pixels;
            const int ly = py % g.block_pixels;
            if (lx == 0 || ly == 0 || lx == g.block_pixels - 1 || ly == g.block_pixels - 1) {
                continue;
            }
            const auto index = static_cast<std::size_t>(cy)
                                   * static_cast<std::size_t>(params_.capture_width)
                               + static_cast<std::size_t>(cx);
            block_of_pixel_[index] =
                g.block_index(px / g.block_pixels, py / g.block_pixels);
            // The chessboard's two diagonal fundamentals: spatial
            // frequency half a cycle per Pixel along both diagonals.
            const double phase1 = std::numbers::pi * (pxf + pyf);
            const double phase2 = std::numbers::pi * (pxf - pyf);
            cos1_[index] = static_cast<float>(std::cos(phase1));
            sin1_[index] = static_cast<float>(std::sin(phase1));
            cos2_[index] = static_cast<float>(std::cos(phase2));
            sin2_[index] = static_cast<float>(std::sin(phase2));
        }
    }
    });
}

const img::Imagef& Inframe_decoder::luma_of(const img::Imagef& capture, img::Imagef& gray) const
{
    util::expects(capture.width() == params_.capture_width
                      && capture.height() == params_.capture_height,
                  "decoder: capture size mismatch");
    if (capture.channels() == 1) return capture;
    gray = img::to_gray(capture);
    return gray;
}

std::vector<double> Inframe_decoder::luma_metrics(const img::Imagef& luma) const
{
    return params_.detector == Detector::matched ? matched_metrics(luma)
                                                 : noise_level_metrics(luma);
}

std::vector<double> Inframe_decoder::block_metrics(const img::Imagef& capture) const
{
    img::Imagef gray;
    return luma_metrics(luma_of(capture, gray));
}

std::vector<double> Inframe_decoder::block_levels(const img::Imagef& luma) const
{
    const auto& g = params_.geometry;
    std::vector<double> levels(static_cast<std::size_t>(g.block_count()), 0.0);
    // Each block writes one slot, so rows fan out with no shared state.
    util::parallel_for(0, g.blocks_y, 1, [&](std::int64_t by0, std::int64_t by1) {
        for (int by = static_cast<int>(by0); by < static_cast<int>(by1); ++by) {
            for (int bx = 0; bx < g.blocks_x; ++bx) {
                const auto r = g.capture_rect(bx, by, luma.width(), luma.height());
                levels[static_cast<std::size_t>(g.block_index(bx, by))] =
                    img::mean_region(luma, r.x0, r.y0, r.width, r.height);
            }
        }
    });
    return levels;
}

std::vector<double> Inframe_decoder::matched_metrics(const img::Imagef& capture) const
{
    const auto& g = params_.geometry;
    const auto blocks = static_cast<std::size_t>(g.block_count());

    // Per-block accumulators for the quadrature correlation. The block
    // mean is removed via the accumulated template sums so partial blocks
    // stay unbiased.
    struct Acc {
        double n = 0.0;
        double sum = 0.0;
        double ic1 = 0.0, is1 = 0.0, ic2 = 0.0, is2 = 0.0;
        double tc1 = 0.0, ts1 = 0.0, tc2 = 0.0, ts2 = 0.0;
    };
    // Fixed row slices produce per-slice Acc partials that are merged in
    // slice order — the floating-point association depends on the slice
    // grain only, never on the thread count, so every thread count yields
    // bit-identical metrics (the contract the determinism tests pin down).
    const auto stride = static_cast<std::size_t>(capture.width());
    constexpr std::int64_t slice_rows = 64;
    std::vector<Acc> acc = util::parallel_reduce(
        0, capture.height(), slice_rows, std::vector<Acc>(blocks),
        [&](std::int64_t y0, std::int64_t y1) {
            std::vector<Acc> partial(blocks);
            for (std::int64_t cy = y0; cy < y1; ++cy) {
                const auto row = capture.row(static_cast<int>(cy));
                const auto base = static_cast<std::size_t>(cy) * stride;
                for (int cx = 0; cx < capture.width(); ++cx) {
                    const auto index = base + static_cast<std::size_t>(cx);
                    const auto block = block_of_pixel_[index];
                    if (block < 0) continue;
                    auto& a = partial[static_cast<std::size_t>(block)];
                    const double v = row[static_cast<std::size_t>(cx)];
                    a.n += 1.0;
                    a.sum += v;
                    a.ic1 += v * cos1_[index];
                    a.is1 += v * sin1_[index];
                    a.ic2 += v * cos2_[index];
                    a.is2 += v * sin2_[index];
                    a.tc1 += cos1_[index];
                    a.ts1 += sin1_[index];
                    a.tc2 += cos2_[index];
                    a.ts2 += sin2_[index];
                }
            }
            return partial;
        },
        [&](std::vector<Acc> total, std::vector<Acc> partial) {
            for (std::size_t b = 0; b < total.size(); ++b) {
                auto& t = total[b];
                const auto& p = partial[b];
                t.n += p.n;
                t.sum += p.sum;
                t.ic1 += p.ic1;
                t.is1 += p.is1;
                t.ic2 += p.ic2;
                t.is2 += p.is2;
                t.tc1 += p.tc1;
                t.ts1 += p.ts1;
                t.tc2 += p.tc2;
                t.ts2 += p.ts2;
            }
            return total;
        });

    std::vector<double> metrics(blocks, 0.0);
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto& a = acc[b];
        if (a.n < 9.0) continue; // too few samples to judge
        const double mean = a.sum / a.n;
        const double corr1 = std::hypot(a.ic1 - mean * a.tc1, a.is1 - mean * a.ts1);
        const double corr2 = std::hypot(a.ic2 - mean * a.tc2, a.is2 - mean * a.ts2);
        metrics[b] = 2.0 * (corr1 + corr2) / a.n;
    }
    return metrics;
}

std::vector<double> Inframe_decoder::noise_level_metrics(const img::Imagef& capture) const
{
    const auto& g = params_.geometry;

    // High-band residual: |I - smooth(I)| captures the chessboard plus
    // fine texture and sensor noise.
    img::Imagef smoothed = img::box_blur(capture, smooth_radius_);
    img::Imagef high_band = img::abs_diff(capture, smoothed);

    // Octave-lower residual: texture is broadband, the chessboard is not.
    img::Imagef mid_band;
    if (params_.texture_compensation) {
        img::Imagef smoother = img::box_blur(smoothed, 2 * smooth_radius_ + 1);
        mid_band = img::abs_diff(smoothed, smoother);
        img::Frame_pool::instance().recycle(std::move(smoother));
    }

    std::vector<double> metrics(static_cast<std::size_t>(g.block_count()), 0.0);
    // Each block writes exactly one metrics slot, so block rows fan out
    // across threads without any shared state.
    util::parallel_for(0, g.blocks_y, 1, [&](std::int64_t by0, std::int64_t by1) {
    for (int by = static_cast<int>(by0); by < static_cast<int>(by1); ++by) {
        for (int bx = 0; bx < g.blocks_x; ++bx) {
            const auto r = g.capture_rect(bx, by, capture.width(), capture.height());
            double metric = img::mean_region(high_band, r.x0, r.y0, r.width, r.height);
            if (params_.texture_compensation) {
                metric -= img::mean_region(mid_band, r.x0, r.y0, r.width, r.height);
            }
            metrics[static_cast<std::size_t>(g.block_index(bx, by))] = std::max(metric, 0.0);
        }
    }
    });
    img::Frame_pool::instance().recycle(std::move(smoothed));
    img::Frame_pool::instance().recycle(std::move(high_band));
    img::Frame_pool::instance().recycle(std::move(mid_band));
    return metrics;
}

Inframe_decoder::Threshold_split
Inframe_decoder::split_metrics(std::span<const double> metrics) const
{
    util::expects(!metrics.empty(), "decoder: cannot pick a threshold from no metrics");
    // NaN breaks the strict weak ordering std::sort needs.
    util::expects(all_finite(metrics), "decoder: cannot split non-finite metrics");

    // Otsu's method on the sorted metric values: choose the split that
    // maximizes between-class variance.
    std::vector<double> sorted(metrics.begin(), metrics.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    std::vector<double> prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];
    const double total = prefix[n];

    double best_score = -1.0;
    std::size_t best_split = 1;
    for (std::size_t split = 1; split < n; ++split) {
        const double w0 = static_cast<double>(split);
        const double w1 = static_cast<double>(n - split);
        const double mean0 = prefix[split] / w0;
        const double mean1 = (total - prefix[split]) / w1;
        const double score = w0 * w1 * (mean0 - mean1) * (mean0 - mean1);
        if (score > best_score) {
            best_score = score;
            best_split = split;
        }
    }
    const double lower_mean = prefix[best_split] / static_cast<double>(best_split);
    const double upper_mean =
        (total - prefix[best_split]) / static_cast<double>(n - best_split);

    // Within-class spread on both sides of the split.
    double var_lower = 0.0;
    double var_upper = 0.0;
    for (std::size_t i = 0; i < best_split; ++i) {
        var_lower += (sorted[i] - lower_mean) * (sorted[i] - lower_mean);
    }
    for (std::size_t i = best_split; i < n; ++i) {
        var_upper += (sorted[i] - upper_mean) * (sorted[i] - upper_mean);
    }
    var_lower /= static_cast<double>(std::max<std::size_t>(best_split, 1));
    var_upper /= static_cast<double>(std::max<std::size_t>(n - best_split, 1));
    const double pooled_sigma = std::sqrt((var_lower + var_upper) / 2.0) + 1e-9;
    const double dprime = (upper_mean - lower_mean) / pooled_sigma;

    Threshold_split result;
    result.value = (lower_mean + upper_mean) / 2.0;
    result.dprime = dprime;
    // Degenerate distribution: classes not separated, the "signal" class
    // inside the noise floor, or the separation quality too poor to
    // classify reliably — either way, no trustworthy chessboard
    // population among these blocks.
    result.bimodal = upper_mean >= lower_mean * 1.5 + 0.25
                     && upper_mean >= min_signal_level && dprime >= min_separation_dprime;
    return result;
}

void Inframe_decoder::set_sync_context(int locked, double offset_s)
{
    sync_locked_ = locked;
    sync_offset_s_ = offset_s;
}

std::vector<Data_frame_result> Inframe_decoder::push_capture(const img::Imagef& capture,
                                                             double start_time)
{
    telemetry::Scoped_span span("decode.capture");
    util::expects(start_time >= 0.0, "decoder: capture time must be non-negative");
    std::vector<Data_frame_result> finalized;

    const double frame_period = params_.tau / params_.display_fps;
    // Saturate instead of casting out-of-range doubles (UB): a garbage
    // timestamp lands on the gap cap below, not on undefined behavior.
    const double raw_index = start_time / frame_period;
    constexpr double index_limit = 4.0e18; // comfortably inside int64
    const std::int64_t frame_index =
        raw_index >= index_limit ? static_cast<std::int64_t>(index_limit)
                                 : static_cast<std::int64_t>(raw_index);

    // Phase of the capture within the tau cycle of the frame it lands in
    // (the frame the advance below leaves current); transition-region
    // captures do not vote. Strictly inside the stable window: a capture
    // starting exactly at the half-cycle boundary already integrates the
    // transition ramp.
    const std::int64_t landing_frame = std::max(current_frame_, frame_index);
    const double phase = (start_time - static_cast<double>(landing_frame) * frame_period)
                         / frame_period;
    const bool votes = phase < Decoder_params::stable_fraction - 1e-9;
    // A voting capture is measured, and rejected if non-finite, before any
    // state changes, so a rejected capture loses no finalized frame and
    // leaves the decoder usable.
    std::vector<double> metrics;
    std::vector<double> levels;
    if (votes) {
        img::Imagef gray;
        const img::Imagef& luma = luma_of(capture, gray);
        metrics = luma_metrics(luma);
        if (params_.erasure_aware) levels = block_levels(luma);
        util::expects(all_finite(metrics) && all_finite(levels),
                      "decoder: capture gives non-finite block metrics (NaN or Inf pixels)");
    }

    // Cap the number of idle frames emitted for one capture: a wildly
    // future timestamp (clock glitch, fuzzed input) must not turn into
    // millions of empty results. Frames beyond the cap are skipped.
    if (frame_index - current_frame_ > Decoder_params::max_frame_gap) {
        finalized.push_back(finalize());
        current_frame_ = frame_index;
    }
    while (frame_index > current_frame_) {
        finalized.push_back(finalize());
    }

    if (votes) {
        for (std::size_t i = 0; i < metrics.size(); ++i) metric_sum_[i] += metrics[i];
        for (std::size_t i = 0; i < levels.size(); ++i) level_sum_[i] += levels[i];
        ++captures_in_frame_;
    }
    return finalized;
}

std::optional<Data_frame_result> Inframe_decoder::flush()
{
    if (captures_in_frame_ == 0) return std::nullopt;
    return finalize();
}

Data_frame_result Inframe_decoder::finalize()
{
    telemetry::Scoped_span span("decode.finalize");
    const bool record_diagnostics = telemetry::enabled();
    telemetry::Frame_record record;

    Data_frame_result result;
    result.data_frame_index = current_frame_;
    result.captures_used = captures_in_frame_;

    const auto block_count = static_cast<std::size_t>(params_.geometry.block_count());
    result.decisions.assign(block_count, coding::Block_decision::unknown);
    if (params_.erasure_aware) result.erasures.assign(block_count, 0);

    // Occlusion mask from the aggregated block levels: blocks far below
    // the frame's median level are covered, not dark content — their
    // residual metric is meaningless and must become an erasure rather
    // than a confident zero.
    std::vector<std::uint8_t> occluded;
    if (params_.erasure_aware && captures_in_frame_ > 0) {
        std::vector<double> levels(block_count);
        for (std::size_t i = 0; i < block_count; ++i) {
            levels[i] = level_sum_[i] / captures_in_frame_;
        }
        std::vector<double> sorted_levels = levels;
        std::nth_element(sorted_levels.begin(), sorted_levels.begin() + sorted_levels.size() / 2,
                         sorted_levels.end());
        const double median = sorted_levels[sorted_levels.size() / 2];
        const double cutoff = std::max(occlusion_level_floor, occlusion_level_fraction * median);
        occluded.assign(block_count, 0);
        for (std::size_t i = 0; i < block_count; ++i) {
            if (levels[i] < cutoff) {
                occluded[i] = 1;
                ++result.occluded_blocks;
            }
        }
    }

    if (captures_in_frame_ > 0) {
        std::vector<double> metrics(block_count);
        for (std::size_t i = 0; i < block_count; ++i) {
            metrics[i] = metric_sum_[i] / captures_in_frame_;
        }
        auto classify = [&](std::size_t begin, std::size_t count, double threshold) {
            const double hi = threshold * (1.0 + params_.hysteresis);
            const double lo = threshold * (1.0 - params_.hysteresis);
            for (std::size_t i = begin; i < begin + count; ++i) {
                if (metrics[i] >= hi) {
                    result.decisions[i] = coding::Block_decision::one;
                } else if (metrics[i] <= lo) {
                    result.decisions[i] = coding::Block_decision::zero;
                }
            }
            if (record_diagnostics && threshold > 0.0) {
                // Confidence margin of every block this threshold judged:
                // distance from the decision boundary, relative to it.
                // Low buckets = blocks drifting toward misclassification.
                for (std::size_t i = begin; i < begin + count; ++i) {
                    const double margin = std::abs(metrics[i] - threshold) / threshold;
                    ++record.margin_hist[static_cast<std::size_t>(
                        telemetry::Frame_record::margin_bucket(margin))];
                }
            }
        };
        // Otsu split per block-row. Rolling shutter cancels the pattern in
        // horizontal bands (rows whose exposure straddles a +D/-D
        // boundary); a per-row split adapts to the local pattern strength
        // and — crucially — marks rows whose two classes are not separable
        // as unknown instead of reading them as confident all-zeros, which
        // XOR parity cannot catch.
        const auto row = static_cast<std::size_t>(params_.geometry.blocks_x);
        util::Running_stats chosen;
        for (std::size_t by = 0; by < static_cast<std::size_t>(params_.geometry.blocks_y); ++by) {
            const auto split = split_metrics(std::span(metrics).subspan(by * row, row));
            if (!split.bimodal) continue;
            classify(by * row, row, split.value);
            chosen.add(split.value);
        }
        result.threshold = chosen.count() > 0 ? chosen.mean() : 0.0;

        if (params_.erasure_aware) {
            // Occluded blocks are erasures no matter how confidently the
            // (meaningless) metric classified them; ambiguous blocks —
            // still unknown after classification — are erasures too.
            for (std::size_t i = 0; i < block_count; ++i) {
                if (!occluded.empty() && occluded[i]) {
                    result.decisions[i] = coding::Block_decision::unknown;
                    result.erasures[i] = 1;
                } else if (result.decisions[i] == coding::Block_decision::unknown) {
                    result.erasures[i] = 1;
                }
            }
        }
    }
    result.gob = coding::decode_gob_parity(params_.geometry, result.decisions, 0,
                                           params_.erasure_aware);

    if (record_diagnostics) {
        record.data_frame_index = result.data_frame_index;
        record.time_s = static_cast<double>(current_frame_) * params_.tau / params_.display_fps;
        record.captures_used = result.captures_used;
        record.threshold = result.threshold;
        record.blocks_total = static_cast<int>(block_count);
        for (const auto decision : result.decisions) {
            if (decision == coding::Block_decision::unknown) ++record.blocks_unknown;
        }
        for (const auto erased : result.erasures) record.blocks_erased += erased;
        record.blocks_occluded = result.occluded_blocks;
        record.gobs_total = static_cast<int>(result.gob.gobs.size());
        for (const auto& gob : result.gob.gobs) {
            record.gobs_available += gob.available ? 1 : 0;
            record.gobs_parity_ok += gob.parity_ok ? 1 : 0;
            record.gobs_recovered += gob.recovered ? 1 : 0;
        }
        record.sync_locked = sync_locked_;
        record.sync_offset_s = sync_offset_s_;
        telemetry::emit_frame(record);
    }

    std::fill(metric_sum_.begin(), metric_sum_.end(), 0.0);
    std::fill(level_sum_.begin(), level_sum_.end(), 0.0);
    captures_in_frame_ = 0;
    ++current_frame_;
    return result;
}

} // namespace inframe::core
