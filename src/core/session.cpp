#include "core/session.hpp"

#include "util/contract.hpp"

#include <algorithm>

namespace inframe::core {

namespace {

coding::Rs_framer make_rs_framer(int capacity_bits, const Session_options& options)
{
    util::expects(options.rs_parity_fraction > 0.0 && options.rs_parity_fraction < 1.0,
                  "session: RS parity fraction must be in (0, 1)");
    const int n = std::min(capacity_bits / 8, 255);
    const int parity = std::max(2, static_cast<int>(n * options.rs_parity_fraction));
    const int k = n - parity;
    // 12 bytes of protected header; at least one payload byte must fit.
    util::expects(k >= 13, "session: frame capacity too small for RS framing");
    return coding::Rs_framer(capacity_bits, n, k);
}

} // namespace

Frame_codec::Frame_codec(int capacity_bits, Session_options options)
    : framer_(make_rs_framer(capacity_bits, options))
{
}

int Frame_codec::max_payload_bytes() const
{
    return framer_.max_payload_bytes();
}

std::vector<std::uint8_t> Frame_codec::build(std::uint32_t sequence,
                                             std::span<const std::uint8_t> payload) const
{
    return framer_.build(sequence, payload);
}

std::optional<Frame_codec::Parsed> Frame_codec::parse(std::span<const std::uint8_t> bits) const
{
    return parse(bits, {});
}

std::optional<Frame_codec::Parsed>
Frame_codec::parse(std::span<const std::uint8_t> bits,
                   std::span<const std::uint8_t> trusted) const
{
    auto inner = framer_.parse(bits, trusted);
    if (!inner) return std::nullopt;
    return Parsed{inner->sequence, std::move(inner->payload)};
}

Inframe_sender::Inframe_sender(Inframe_config config, std::vector<std::uint8_t> message,
                               bool loop, Session_options options)
    : encoder_(config), codec_(config.geometry.payload_bits_per_frame(), options), loop_(loop)
{
    chunks_ = coding::chunk_message(message, codec_.max_payload_bytes());
    refill_queue();
}

void Inframe_sender::refill_queue()
{
    // Keep a couple of data frames queued so the encoder can smooth into
    // the *next* frame's bits.
    while (encoder_.queued_data_frames() < 3) {
        const std::size_t chunk_index = next_sequence_ % chunks_.size();
        if (!loop_ && next_sequence_ >= chunks_.size()) break;
        const auto bits = codec_.build(next_sequence_, chunks_[chunk_index]);
        encoder_.queue_payload(bits);
        ++next_sequence_;
    }
}

img::Imagef Inframe_sender::next_display_frame(const img::Imagef& video_frame)
{
    refill_queue();
    return encoder_.next_display_frame(video_frame);
}

Inframe_receiver::Inframe_receiver(Decoder_params params, std::size_t expected_chunks,
                                   Session_options options)
    : decoder_(std::move(params)),
      codec_(decoder_.params().geometry.payload_bits_per_frame(), options),
      expected_chunks_(expected_chunks)
{
    util::expects(expected_chunks >= 1, "receiver: expected chunk count must be positive");
}

void Inframe_receiver::ingest(const Data_frame_result& result)
{
    const auto parsed =
        codec_.parse(result.gob.payload_bits, result.gob.payload_bit_trusted);
    if (!parsed) {
        ++frames_rejected_;
        return;
    }
    ++frames_decoded_;
    const std::uint32_t chunk_index = parsed->sequence % expected_chunks_;
    chunks_.emplace(chunk_index, parsed->payload);
}

void Inframe_receiver::push_capture(const img::Imagef& capture, double start_time)
{
    for (const auto& result : decoder_.push_capture(capture, start_time)) ingest(result);
}

void Inframe_receiver::finish()
{
    if (const auto result = decoder_.flush()) ingest(*result);
}

bool Inframe_receiver::message_complete() const
{
    if (chunks_.size() < expected_chunks_) return false;
    for (std::uint32_t i = 0; i < expected_chunks_; ++i) {
        if (!chunks_.contains(i)) return false;
    }
    return true;
}

std::vector<std::uint8_t> Inframe_receiver::message() const
{
    if (!message_complete()) return {};
    std::vector<std::uint8_t> out;
    for (std::uint32_t i = 0; i < expected_chunks_; ++i) {
        const auto& chunk = chunks_.at(i);
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

Decoder_params make_decoder_params(const Inframe_config& config, int capture_width,
                                   int capture_height)
{
    Decoder_params params;
    params.geometry = config.geometry;
    params.capture_width = capture_width;
    params.capture_height = capture_height;
    params.tau = config.tau;
    params.display_fps = config.display_fps;
    params.validate();
    return params;
}

} // namespace inframe::core
