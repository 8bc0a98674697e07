#include "core/stages.hpp"

#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <algorithm>
#include <utility>

namespace inframe::core {

namespace {

void recycle(img::Imagef&& frame)
{
    img::Frame_pool::instance().recycle(std::move(frame));
}

} // namespace

Payload_source make_random_payload_source(std::uint64_t seed, int bits_per_frame)
{
    util::expects(bits_per_frame > 0, "payload source: bits per frame must be positive");
    struct State {
        util::Prng prng;
        std::int64_t next = 0;
    };
    auto state = std::make_shared<State>(State{util::Prng(seed), 0});
    return [state, bits_per_frame](std::int64_t index) {
        // The Prng stream is sequential, so pulls must arrive in order —
        // which the Encode_stage top-up guarantees.
        util::expects(index == state->next, "payload source: indices must be sequential");
        ++state->next;
        return state->prng.next_bits(static_cast<std::size_t>(bits_per_frame));
    };
}

// --- Video_stage ----------------------------------------------------------

Video_stage::Video_stage(std::shared_ptr<const video::Video_source> source,
                         video::Playback_schedule schedule)
    : video_(std::move(source)), schedule_(schedule)
{
    util::expects(video_ != nullptr, "video stage: source required");
}

std::vector<Frame_token> Video_stage::push(Frame_token token)
{
    token.time_s = schedule_.display_time(token.index);
    token.image = video_->frame(schedule_.video_frame_for_display(token.index));
    std::vector<Frame_token> out;
    out.push_back(std::move(token));
    return out;
}

// --- Encode_stage ---------------------------------------------------------

Encode_stage::Encode_stage(Inframe_config config, Options options)
    : encoder_(std::move(config)), options_(std::move(options))
{
}

void Encode_stage::top_up()
{
    if (!options_.payloads) return;
    // The encoder peeks at data frame d+1 while frame d is on air (the
    // transition envelope needs the next bits), so keep the queue one
    // frame ahead of the display index.
    const std::int64_t needed = encoder_.display_index() / encoder_.config().tau + 1;
    while (next_payload_index_ <= needed) {
        std::vector<std::uint8_t> bits = options_.payloads(next_payload_index_);
        if (bits.empty()) {
            options_.payloads = nullptr; // exhausted; idle from here on
            break;
        }
        encoder_.queue_payload(bits);
        ++next_payload_index_;
    }
}

img::Imagef Encode_stage::encode(const img::Imagef& video_frame)
{
    top_up();
    return encoder_.next_display_frame(video_frame);
}

std::vector<Frame_token> Encode_stage::push(Frame_token token)
{
    img::Imagef display = encode(token.image);
    recycle(std::move(token.image));
    token.image = std::move(display);
    std::vector<Frame_token> out;
    out.push_back(std::move(token));
    return out;
}

// --- Link_stage -----------------------------------------------------------

Link_stage::Link_stage(channel::Display_params display, channel::Camera_params camera,
                       int screen_width, int screen_height,
                       channel::Impairment_config impairments)
    : link_(display, camera, screen_width, screen_height, impairments)
{
}

std::vector<Frame_token> Link_stage::push(Frame_token token)
{
    std::vector<channel::Capture> captures = link_.push_display_frame(token.image);
    recycle(std::move(token.image));
    std::vector<Frame_token> out;
    out.reserve(captures.size());
    for (channel::Capture& capture : captures) {
        Frame_token produced;
        produced.index = capture.index;
        produced.time_s = capture.start_time;
        produced.image = std::move(capture.image);
        out.push_back(std::move(produced));
    }
    return out;
}

// --- Decode_stage ---------------------------------------------------------

Decode_stage::Decode_stage(Decoder_params params) : decoder_(std::move(params)) {}

std::vector<Frame_token> Decode_stage::push(Frame_token token)
{
    for (Data_frame_result& result : decoder_.push_capture(token.image, token.time_s)) {
        results_.push_back(std::move(result));
    }
    recycle(std::move(token.image));
    return {};
}

std::vector<Frame_token> Decode_stage::flush()
{
    if (std::optional<Data_frame_result> last = decoder_.flush()) {
        results_.push_back(std::move(*last));
    }
    // Sinks reorder: present results in data-frame order regardless of
    // how the executor interleaved their arrival.
    std::stable_sort(results_.begin(), results_.end(),
                     [](const Data_frame_result& a, const Data_frame_result& b) {
                         return a.data_frame_index < b.data_frame_index;
                     });
    return {};
}

// --- Send_stage / Receive_stage -------------------------------------------

Send_stage::Send_stage(Inframe_config config, std::vector<std::uint8_t> message, bool loop,
                       Session_options options)
    : sender_(std::move(config), std::move(message), loop, options)
{
}

std::vector<Frame_token> Send_stage::push(Frame_token token)
{
    img::Imagef display = sender_.next_display_frame(token.image);
    recycle(std::move(token.image));
    token.image = std::move(display);
    std::vector<Frame_token> out;
    out.push_back(std::move(token));
    return out;
}

Receive_stage::Receive_stage(Decoder_params params, std::size_t expected_chunks,
                             Session_options options)
    : receiver_(std::move(params), expected_chunks, options)
{
}

std::vector<Frame_token> Receive_stage::push(Frame_token token)
{
    receiver_.push_capture(token.image, token.time_s);
    if (completed_at_ < 0.0 && receiver_.message_complete()) completed_at_ = token.time_s;
    recycle(std::move(token.image));
    return {};
}

std::vector<Frame_token> Receive_stage::flush()
{
    receiver_.finish();
    return {};
}

} // namespace inframe::core
