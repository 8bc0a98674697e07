// InFrame encoder: multiplexes data frames onto video frames (paper 3.2).
//
// For every display refresh the encoder emits V + sigma * D', where
//   - V is the current video frame (each video frame repeats
//     display_fps / video_fps times),
//   - sigma alternates +1 / -1 every refresh (complementary frames: the
//     eye averages the pair back to V),
//   - D' is the active data frame's chessboard (paper 3.3: a bit-1 Block
//     raises every Pixel (i, j) with i + j odd, a bit-0 Block is left
//     untouched) with a per-block amplitude: delta scaled by the temporal
//     smoothing envelope (SRRC transition in the second half of the
//     tau-cycle when the block's bit changes) and by the local cap that
//     keeps V +- D inside [0, 255] near saturated content. The cap is
//     computed from the video frame each call is given.
#pragma once

#include "core/config.hpp"
#include "imgproc/image.hpp"

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace inframe::core {

class Inframe_encoder {
public:
    explicit Inframe_encoder(Inframe_config config);

    // Queues a data frame given payload bits (payload_bits_per_frame());
    // GOB parity blocks are inserted here.
    void queue_payload(std::span<const std::uint8_t> payload_bits);

    // Queues a data frame given raw block bits (block_count()).
    void queue_block_bits(std::vector<std::uint8_t> block_bits);

    // Produces the next multiplexed display frame. `video_frame` must be
    // the frame the playback schedule shows during this refresh (the
    // caller advances it every video_repeat() refreshes). When the data
    // queue is empty an all-zero (idle) data frame is transmitted.
    img::Imagef next_display_frame(const img::Imagef& video_frame);

    // Pauses data embedding (5's practical issue: "the original video
    // frame should be rendered when video viewing pauses"). The active
    // data frame finishes its cycle ramping into idle — an abrupt stop
    // would itself flicker — after which frames pass through unmodified.
    // Queued data frames are retained and resume() continues with them.
    void pause();
    void resume();
    bool paused() const { return paused_; }

    // True once a pause has fully ramped out (output == plain video).
    bool idle() const;

    // Number of display frames emitted so far.
    std::int64_t display_index() const { return display_index_; }

    // Index of the data frame currently on air.
    std::int64_t data_frame_index() const { return display_index_ / config_.tau; }

    // Block bits of the data frame that was (or will be) on air for the
    // given data frame index; empty if it was idle. Retained so
    // experiments can compare decoded output against the truth.
    const std::vector<std::uint8_t>* transmitted_block_bits(std::int64_t data_index) const;

    std::size_t queued_data_frames() const { return queue_.size(); }

    const Inframe_config& config() const { return config_; }

private:
    const std::vector<std::uint8_t>& bits_for(std::int64_t data_index);

    Inframe_config config_;
    std::deque<std::vector<std::uint8_t>> queue_; // pending data frames
    std::vector<std::vector<std::uint8_t>> history_; // transmitted block bits per data frame
    std::vector<bool> filler_; // parallel to history_: idle filler, not queued data
    std::vector<std::uint8_t> idle_bits_;
    std::int64_t display_index_ = 0;
    bool paused_ = false;
    std::int64_t pause_boundary_ = -1; // first fully-idle data frame index
};

// Builds the complementary pair (V + D, V - D) for a single video frame
// and data frame — the Fig. 4 visual. Runs the encoder's embed pass (local
// cap and clamp included) at full delta, with no temporal smoothing.
struct Complementary_pair {
    img::Imagef plus;
    img::Imagef minus;
};
Complementary_pair make_complementary_pair(const Inframe_config& config,
                                           const img::Imagef& video_frame,
                                           std::span<const std::uint8_t> block_bits);

} // namespace inframe::core
