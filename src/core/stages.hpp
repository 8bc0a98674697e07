// Concrete pipeline stages for the paper's dataflow:
//
//   Video_stage -> Encode_stage -> Link_stage -> Decode_stage
//                  (Send_stage)                  (Receive_stage)
//
// Every driver in the repo — link_runner, the examples, the benches —
// assembles its graph from these instead of hand-rolling the
// video -> encoder -> display/camera -> decoder loop. Each stage wraps
// one existing component (Inframe_encoder, Screen_camera_link, ...) and
// owns the Frame_pool recycling discipline at its boundary, so callers
// never touch frame lifetimes.
#pragma once

#include "channel/link.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "video/playback.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace inframe::core {

// Pulls the payload bits for one data frame. Called with strictly
// increasing data-frame indices (0, 1, 2, ...); returning an empty
// vector means the source is exhausted and the encoder idles from then
// on. This replaces queueing every payload of a run up front — memory
// no longer grows with the experiment duration.
using Payload_source = std::function<std::vector<std::uint8_t>(std::int64_t data_frame_index)>;

// The paper's "pseudo-random data generator with a pre-set seed",
// generated lazily frame by frame. The bit stream is identical to
// draining one util::Prng(seed) up front.
Payload_source make_random_payload_source(std::uint64_t seed, int bits_per_frame);

// Source stage: expands bare head tokens (sequence indices) into video
// frames with display timestamps, following the playback schedule.
class Video_stage final : public Stage {
public:
    Video_stage(std::shared_ptr<const video::Video_source> source,
                video::Playback_schedule schedule);

    const char* name() const override { return "video"; }
    std::vector<Frame_token> push(Frame_token token) override;

    const video::Playback_schedule& schedule() const { return schedule_; }

private:
    std::shared_ptr<const video::Video_source> video_;
    video::Playback_schedule schedule_;
};

// Multiplexes data onto the video frame (Inframe_encoder), topping up
// the encoder's queue from the Payload_source just ahead of the air
// schedule (the encoder peeks one data frame ahead for its transition
// envelope).
class Encode_stage final : public Stage {
public:
    struct Options {
        Payload_source payloads;     // empty -> the encoder idles
    };

    Encode_stage(Inframe_config config, Options options);

    const char* name() const override { return "encode"; }
    std::vector<Frame_token> push(Frame_token token) override;

    // Top-up + next_display_frame, for drivers that run the encoder
    // outside a pipeline stage: the sync-acquisition bench pre-rolls it
    // before the link starts, and the flicker experiment encodes inside
    // its assess stage, where the video frame is still at hand.
    img::Imagef encode(const img::Imagef& video_frame);

    Inframe_encoder& encoder() { return encoder_; }
    const Inframe_encoder& encoder() const { return encoder_; }

private:
    void top_up();

    Inframe_encoder encoder_;
    Options options_;
    std::int64_t next_payload_index_ = 0;
};

// Display + camera + impairment chain. The single factory for
// channel::Screen_camera_link in driver code: every assembly routes
// through here, so examples cannot drift from link_runner's defaults by
// forgetting the Impairment_config. Emits one token per completed
// capture (timestamped with the exposure start), which is usually fewer
// than one per display frame.
class Link_stage final : public Stage {
public:
    Link_stage(channel::Display_params display, channel::Camera_params camera, int screen_width,
               int screen_height, channel::Impairment_config impairments = {});

    const char* name() const override { return "link"; }
    std::vector<Frame_token> push(Frame_token token) override;

    channel::Screen_camera_link& link() { return link_; }
    std::int64_t captures_dropped() const { return link_.captures_dropped(); }

private:
    channel::Screen_camera_link link_;
};

// Demultiplexing sink: accumulates Data_frame_results in data-frame
// order for the driver to account after the run.
class Decode_stage final : public Stage {
public:
    explicit Decode_stage(Decoder_params params);

    const char* name() const override { return "decode"; }
    std::vector<Frame_token> push(Frame_token token) override;
    std::vector<Frame_token> flush() override;

    const std::vector<Data_frame_result>& results() const { return results_; }
    Inframe_decoder& decoder() { return decoder_; }

private:
    Inframe_decoder decoder_;
    std::vector<Data_frame_result> results_;
};

// Session-level counterparts: Send_stage multiplexes a framed message
// carousel (Inframe_sender) instead of raw payload bits; Receive_stage
// sinks captures into an Inframe_receiver and records when the message
// completed.
class Send_stage final : public Stage {
public:
    Send_stage(Inframe_config config, std::vector<std::uint8_t> message, bool loop = true,
               Session_options options = {});

    const char* name() const override { return "send"; }
    std::vector<Frame_token> push(Frame_token token) override;

    Inframe_sender& sender() { return sender_; }
    const Inframe_sender& sender() const { return sender_; }

private:
    Inframe_sender sender_;
};

class Receive_stage final : public Stage {
public:
    Receive_stage(Decoder_params params, std::size_t expected_chunks,
                  Session_options options = {});

    const char* name() const override { return "receive"; }
    std::vector<Frame_token> push(Frame_token token) override;
    std::vector<Frame_token> flush() override;

    Inframe_receiver& receiver() { return receiver_; }
    const Inframe_receiver& receiver() const { return receiver_; }

    // Capture timestamp at which message_complete() first became true;
    // negative if the message never completed.
    double completed_at() const { return completed_at_; }

private:
    Inframe_receiver receiver_;
    double completed_at_ = -1.0;
};

} // namespace inframe::core
