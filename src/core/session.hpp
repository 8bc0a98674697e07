// Sender/receiver sessions: the byte-stream API a downstream application
// uses. The sender chunks a message into framed data frames (header +
// CRC inside a Reed-Solomon codeword, 3.3's framing made concrete) and
// feeds the encoder; the receiver turns decoded data frames back into
// ordered payload chunks.
#pragma once

#include "coding/framing.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"

#include <map>
#include <optional>

namespace inframe::core {

// Frame-level protection for sessions. The paper's strawman leaves error
// correction beyond GOB parity as future work; real message delivery
// needs it, because one undecodable GOB corrupts the whole frame payload.
// Every frame is wrapped in a Reed-Solomon codeword so bursts of lost
// GOBs (rolling-shutter bands) are corrected.
struct Session_options {
    // Fraction of the RS codeword spent on parity symbols.
    double rs_parity_fraction = 0.55;
};

// Sizes an Rs_framer for a data frame's capacity: RS(n, k) with
// n = min(capacity / 8, 255) symbols and rs_parity_fraction of them
// parity.
class Frame_codec {
public:
    Frame_codec(int capacity_bits, Session_options options);

    int max_payload_bytes() const;
    std::vector<std::uint8_t> build(std::uint32_t sequence,
                                    std::span<const std::uint8_t> payload) const;

    struct Parsed {
        std::uint32_t sequence = 0;
        std::vector<std::uint8_t> payload;
    };
    std::optional<Parsed> parse(std::span<const std::uint8_t> bits) const;

    // Erasure-aware parse: trusted marks reliable bits; untrusted spans
    // become symbol erasures for the RS decoder.
    std::optional<Parsed> parse(std::span<const std::uint8_t> bits,
                                std::span<const std::uint8_t> trusted) const;

private:
    coding::Rs_framer framer_;
};

class Inframe_sender {
public:
    // loop = true keeps re-broadcasting the message (carousel mode, e.g.
    // coupon links in an ad video, 5); false idles once sent.
    Inframe_sender(Inframe_config config, std::vector<std::uint8_t> message, bool loop = true,
                   Session_options options = {});

    // Multiplexes the next display frame over the given video frame.
    img::Imagef next_display_frame(const img::Imagef& video_frame);

    // Chunks of the message and frames needed for one full carousel pass.
    std::size_t total_chunks() const { return chunks_.size(); }

    const Inframe_encoder& encoder() const { return encoder_; }
    const Frame_codec& codec() const { return codec_; }

private:
    void refill_queue();

    Inframe_encoder encoder_;
    Frame_codec codec_;
    std::vector<std::vector<std::uint8_t>> chunks_;
    std::uint32_t next_sequence_ = 0;
    bool loop_;
};

class Inframe_receiver {
public:
    Inframe_receiver(Decoder_params params, std::size_t expected_chunks,
                     Session_options options = {});

    // Feeds one capture; internally decodes data frames and parses payload
    // chunks as they complete.
    void push_capture(const img::Imagef& capture, double start_time);

    // Finalizes pending state (end of stream).
    void finish();

    // True once every chunk sequence [0, expected_chunks) has arrived.
    bool message_complete() const;

    // Concatenated message (empty until complete).
    std::vector<std::uint8_t> message() const;

    std::size_t chunks_received() const { return chunks_.size(); }
    std::size_t frames_decoded() const { return frames_decoded_; }
    std::size_t frames_rejected() const { return frames_rejected_; }

    const Inframe_decoder& decoder() const { return decoder_; }

private:
    void ingest(const Data_frame_result& result);

    Inframe_decoder decoder_;
    Frame_codec codec_;
    std::size_t expected_chunks_;
    std::map<std::uint32_t, std::vector<std::uint8_t>> chunks_;
    std::size_t frames_decoded_ = 0;
    std::size_t frames_rejected_ = 0;
};

// Matching decoder parameters for an encoder configuration and a camera's
// capture resolution.
Decoder_params make_decoder_params(const Inframe_config& config, int capture_width,
                                   int capture_height);

} // namespace inframe::core
