#include "core/encoder.hpp"

#include "coding/parity.hpp"
#include "imgproc/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::core {

namespace {

// The one embed pass: V + D, where D holds each Block's chessboard at its
// signed amplitude (0: the Block does not embed). Raised Pixels are those
// with i + j odd (paper 3.3); colour video gets the same amplitude on
// every channel, shifting luminance without altering chromaticity.
//
// With the local cap, a Block's amplitude is limited by the headroom of
// the video under it, min(255 - max, min), so V + D and V - D both stay
// in [0, 255] and the pair still averages to V (paper 3.2). The cap reads
// only `video`, so the pair the encoder shows on two refreshes of the same
// video frame shares it.
//
// Rows of Blocks are independent, so the pass runs in parallel over them;
// the first and last also write the margins above and below the code
// area. Each output row is written once: the video value plus D, clamped
// as img::clamp does, min(max(v, 0), 255). Where D is empty it holds
// -0.0f, the one float whose addition is the identity for every value
// (+0.0f would turn a -0.0f pixel into +0.0f), so the row is a single
// branch-free loop that matches adding on raised Pixels only.
img::Imagef embed(const Inframe_config& config, const img::Imagef& video,
                  std::span<const float> amplitude)
{
    const auto& g = config.geometry;
    const int channels = video.channels();
    const auto row_values = static_cast<std::size_t>(g.screen_width * channels);
    const int block_px = g.block_px();
    const auto blocks_x = static_cast<std::size_t>(g.blocks_x);
    // Row-value offset of Block column b (b == blocks_x: the code area's end).
    const auto block_begin = [&](std::size_t b) {
        return static_cast<std::size_t>((g.origin_x() + static_cast<int>(b) * block_px)
                                         * channels);
    };

    img::Imagef out =
        img::Frame_pool::instance().acquire(g.screen_width, g.screen_height, channels);
    util::parallel_for(0, g.blocks_y, 1, [&](std::int64_t by0, std::int64_t by1) {
        // Per-column extremes over one Block row, in row-value layout.
        std::vector<float> column_lo(row_values);
        std::vector<float> column_hi(row_values);
        // D on the Block row's even and odd Pixel rows, plus an empty row
        // for the margins: the amplitude each row value gets.
        std::vector<float> d(3 * row_values);
        for (std::int64_t by = by0; by < by1; ++by) {
            const auto a = amplitude.subspan(static_cast<std::size_t>(by) * blocks_x, blocks_x);
            const int y0 = g.origin_y() + static_cast<int>(by) * block_px;
            const int y1 = y0 + block_px;

            if (config.local_amplitude_cap) {
                // Column extremes over each run of embedding Blocks
                // (elementwise, so it vectorizes), then one fold per Block.
                // min and max are exact and never pick a NaN, so the order
                // cannot change a Block's extremes beyond the sign of a
                // zero, which caps to the same amplitude.
                std::fill(column_lo.begin(), column_lo.end(), 255.0f);
                std::fill(column_hi.begin(), column_hi.end(), 0.0f);
                for (int y = y0; y < y1; ++y) {
                    const float* in = video.row(y).data();
                    for (std::size_t b = 0; b < blocks_x;) {
                        std::size_t e = b;
                        while (e < blocks_x && a[e] != 0.0f) ++e;
                        for (std::size_t i = block_begin(b); i < block_begin(e); ++i) {
                            column_lo[i] = std::min(column_lo[i], in[i]);
                            column_hi[i] = std::max(column_hi[i], in[i]);
                        }
                        b = e + 1;
                    }
                }
            }

            std::fill(d.begin(), d.end(), -0.0f);
            for (std::size_t b = 0; b < blocks_x; ++b) {
                if (a[b] == 0.0f) continue;
                float amp = a[b];
                if (config.local_amplitude_cap) {
                    float lo = 255.0f;
                    float hi = 0.0f;
                    for (std::size_t i = block_begin(b); i < block_begin(b + 1); ++i) {
                        lo = std::min(lo, column_lo[i]);
                        hi = std::max(hi, column_hi[i]);
                    }
                    const float headroom = std::min(255.0f - hi, lo);
                    const float magnitude =
                        std::clamp(std::fabs(amp), 0.0f, std::max(headroom, 0.0f));
                    amp = amp < 0.0f ? -magnitude : magnitude;
                }
                if (amp == 0.0f) continue;
                for (int px = 0; px < g.block_pixels; ++px) {
                    // Pixel (px, py) is raised when px + py is odd.
                    float* row = d.data() + static_cast<std::size_t>(1 - px % 2) * row_values;
                    const auto begin = block_begin(b)
                                       + static_cast<std::size_t>(px * g.pixel_size * channels);
                    std::fill_n(row + begin, g.pixel_size * channels, amp);
                }
            }

            const int top = by == 0 ? 0 : y0;
            const int bottom = by == g.blocks_y - 1 ? g.screen_height : y1;
            for (int y = top; y < bottom; ++y) {
                const bool coded = y >= y0 && y < y1;
                const std::size_t phase = coded ? ((y - y0) / g.pixel_size) % 2 : 2;
                const float* dy = d.data() + phase * row_values;
                const float* in = video.row(y).data();
                float* o = out.row(y).data();
                for (std::size_t i = 0; i < row_values; ++i) {
                    o[i] = std::min(std::max(in[i] + dy[i], 0.0f), 255.0f);
                }
            }
        }
    });
    return out;
}

} // namespace

Inframe_encoder::Inframe_encoder(Inframe_config config) : config_(std::move(config))
{
    config_.validate();
    idle_bits_.assign(static_cast<std::size_t>(config_.geometry.block_count()), 0);
}

void Inframe_encoder::queue_payload(std::span<const std::uint8_t> payload_bits)
{
    queue_.push_back(coding::encode_gob_parity(config_.geometry, payload_bits));
}

void Inframe_encoder::queue_block_bits(std::vector<std::uint8_t> block_bits)
{
    util::expects(block_bits.size() == static_cast<std::size_t>(config_.geometry.block_count()),
                  "encoder: block bit count mismatch");
    queue_.push_back(std::move(block_bits));
}

const std::vector<std::uint8_t>& Inframe_encoder::bits_for(std::int64_t data_index)
{
    while (static_cast<std::int64_t>(history_.size()) <= data_index) {
        const bool idle_now =
            paused_ && static_cast<std::int64_t>(history_.size()) >= pause_boundary_;
        const bool filler = idle_now || queue_.empty();
        if (filler) {
            history_.push_back(idle_bits_);
        } else {
            history_.push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        filler_.push_back(filler);
    }
    return history_[static_cast<std::size_t>(data_index)];
}

void Inframe_encoder::pause()
{
    if (paused_) return;
    paused_ = true;
    const std::int64_t current = display_index_ / config_.tau;
    if (history_.empty()) {
        pause_boundary_ = current; // nothing aired yet: idle immediately
        return;
    }
    // Return the peeked-ahead (not yet aired) frames to the queue so
    // resume() continues without losing data.
    while (static_cast<std::int64_t>(history_.size()) > current + 1) {
        if (!filler_.back()) queue_.push_front(std::move(history_.back()));
        history_.pop_back();
        filler_.pop_back();
    }
    pause_boundary_ = static_cast<std::int64_t>(history_.size());
}

void Inframe_encoder::resume()
{
    paused_ = false;
    pause_boundary_ = -1;
}

bool Inframe_encoder::idle() const
{
    return paused_ && pause_boundary_ >= 0 && display_index_ / config_.tau >= pause_boundary_;
}

const std::vector<std::uint8_t>*
Inframe_encoder::transmitted_block_bits(std::int64_t data_index) const
{
    if (data_index < 0 || data_index >= static_cast<std::int64_t>(history_.size())) {
        return nullptr;
    }
    return &history_[static_cast<std::size_t>(data_index)];
}

img::Imagef Inframe_encoder::next_display_frame(const img::Imagef& video_frame)
{
    telemetry::Scoped_span span("encode.embed");
    const auto& g = config_.geometry;
    util::expects(video_frame.width() == g.screen_width
                      && video_frame.height() == g.screen_height,
                  "encoder: video frame does not match geometry");

    const std::int64_t j = display_index_;
    const std::int64_t data_index = j / config_.tau;
    const int phase = static_cast<int>(j % config_.tau);
    const float sign = (j % 2 == 0) ? 1.0f : -1.0f;

    // Materialize the next frame's bits first: bits_for can grow history_
    // and would invalidate a previously taken reference.
    const auto& next = bits_for(data_index + 1);
    const auto& current = bits_for(data_index);

    std::vector<float> amplitude(current.size(), 0.0f);
    for (std::size_t i = 0; i < current.size(); ++i) {
        const auto gain = static_cast<float>(
            dsp::envelope_gain(current[i], next[i], phase, config_.tau, config_.transition));
        if (gain > 0.0f) amplitude[i] = sign * (config_.delta * gain);
    }
    img::Imagef out = embed(config_, video_frame, amplitude);
    ++display_index_;
    return out;
}

Complementary_pair make_complementary_pair(const Inframe_config& config,
                                           const img::Imagef& video_frame,
                                           std::span<const std::uint8_t> block_bits)
{
    config.validate();
    const auto& g = config.geometry;
    util::expects(video_frame.width() == g.screen_width
                      && video_frame.height() == g.screen_height,
                  "complementary pair: video frame does not match geometry");
    util::expects(block_bits.size() == static_cast<std::size_t>(g.block_count()),
                  "complementary pair: block bit count mismatch");

    std::vector<float> amplitude(block_bits.size(), 0.0f);
    for (std::size_t i = 0; i < block_bits.size(); ++i) {
        if (block_bits[i]) amplitude[i] = config.delta;
    }
    Complementary_pair pair;
    pair.plus = embed(config, video_frame, amplitude);
    for (float& a : amplitude) a = -a;
    pair.minus = embed(config, video_frame, amplitude);
    return pair;
}

} // namespace inframe::core
