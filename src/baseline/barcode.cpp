#include "baseline/barcode.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

#include <algorithm>

namespace inframe::baseline {

void Barcode_config::validate() const
{
    geometry.validate();
}

img::Imagef render_barcode(const Barcode_config& config,
                           std::span<const std::uint8_t> block_bits)
{
    config.validate();
    const auto& g = config.geometry;
    util::expects(block_bits.size() == static_cast<std::size_t>(g.block_count()),
                  "barcode: bit count mismatch");
    // Background at black level; the active area carries the code.
    img::Imagef frame(g.screen_width, g.screen_height, 1, config.black_level);
    for (int by = 0; by < g.blocks_y; ++by) {
        for (int bx = 0; bx < g.blocks_x; ++bx) {
            if (!block_bits[static_cast<std::size_t>(g.block_index(bx, by))]) continue;
            const auto rect = g.block_rect(bx, by);
            for (int y = rect.y0; y < rect.y0 + rect.size; ++y) {
                for (int x = rect.x0; x < rect.x0 + rect.size; ++x) {
                    frame(x, y) = config.white_level;
                }
            }
        }
    }
    return frame;
}

std::vector<std::uint8_t> decode_barcode(const Barcode_config& config,
                                         const img::Imagef& capture)
{
    config.validate();
    const auto& g = config.geometry;
    std::vector<double> means(static_cast<std::size_t>(g.block_count()));
    for (int by = 0; by < g.blocks_y; ++by) {
        for (int bx = 0; bx < g.blocks_x; ++bx) {
            const auto r = g.capture_rect(bx, by, capture.width(), capture.height());
            means[static_cast<std::size_t>(g.block_index(bx, by))] =
                img::mean_region(capture, r.x0, r.y0, r.width, r.height);
        }
    }
    // Adaptive threshold at the midpoint of the observed range: robust to
    // brightness scaling across the channel.
    const auto [lo_it, hi_it] = std::minmax_element(means.begin(), means.end());
    const double threshold = (*lo_it + *hi_it) / 2.0;
    std::vector<std::uint8_t> bits(means.size());
    for (std::size_t i = 0; i < means.size(); ++i) bits[i] = means[i] > threshold ? 1 : 0;
    return bits;
}

Barcode_run_result run_barcode_experiment(const Barcode_config& config,
                                          const channel::Display_params& display,
                                          const channel::Camera_params& camera,
                                          double duration_s, std::uint64_t data_seed)
{
    config.validate();
    const std::int64_t total_refreshes =
        channel::display_frame_count(duration_s, config.display_fps);

    util::Prng prng(data_seed);
    const auto frame_count = total_refreshes / config.hold_refreshes + 1;
    std::vector<std::vector<std::uint8_t>> truth;
    truth.reserve(static_cast<std::size_t>(frame_count));
    for (std::int64_t i = 0; i < frame_count; ++i) {
        truth.push_back(prng.next_bits(static_cast<std::size_t>(config.geometry.block_count())));
    }

    channel::Screen_camera_link link(display, camera, config.geometry.screen_width,
                                     config.geometry.screen_height);
    const double hold_s = config.hold_refreshes / config.display_fps;

    std::size_t bits_checked = 0;
    std::size_t bits_wrong = 0;
    int decoded_frames = 0;
    std::int64_t last_frame = -1;
    for (std::int64_t j = 0; j < total_refreshes; ++j) {
        const auto frame_index = static_cast<std::size_t>(j / config.hold_refreshes);
        const img::Imagef frame = render_barcode(config, truth[frame_index]);
        for (const auto& capture : link.push_display_frame(frame)) {
            // Attribute the capture to the barcode frame at its mid-exposure.
            const double mid = capture.start_time + camera.exposure_s / 2.0;
            const auto shown = static_cast<std::int64_t>(mid / hold_s);
            if (shown >= static_cast<std::int64_t>(truth.size())) continue;
            if (shown == last_frame) continue; // one decode per barcode frame
            last_frame = shown;
            const auto bits = decode_barcode(config, capture.image);
            const auto& expected = truth[static_cast<std::size_t>(shown)];
            for (std::size_t b = 0; b < bits.size(); ++b) {
                ++bits_checked;
                bits_wrong += bits[b] != expected[b];
            }
            ++decoded_frames;
        }
    }

    Barcode_run_result result;
    result.barcode_frames = decoded_frames;
    result.raw_rate_kbps = config.raw_bit_rate() / 1000.0;
    result.block_error_rate =
        bits_checked > 0 ? static_cast<double>(bits_wrong) / bits_checked : 0.0;
    const double decoded_duration = decoded_frames / config.barcode_frame_rate();
    result.goodput_kbps = decoded_duration > 0.0
                              ? static_cast<double>(bits_checked - bits_wrong)
                                    / decoded_duration / 1000.0
                              : 0.0;
    return result;
}

} // namespace inframe::baseline
