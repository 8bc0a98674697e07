#include "layers.hpp"

#include "channel/camera.hpp"
#include "channel/display.hpp"
#include "coding/framing.hpp"
#include "core/decoder.hpp"
#include "core/stages.hpp"
#include "imgproc/pool.hpp"
#include "probes.hpp"
#include "telemetry/json.hpp"
#include "util/thread_pool.hpp"
#include "video/playback.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Display frames replayed per layer: 12 captures and 12 video frames on
// the paper rig.
constexpr std::int64_t replay_display_frames = 48;

// The uncached generators behind video::make_gray_video and
// video::make_sunrise_video.
std::unique_ptr<video::Video_source> make_generator(Video_kind kind)
{
    if (kind == Video_kind::gray) {
        return std::make_unique<video::Solid_video>(screen_width, screen_height, 180.0f);
    }
    return std::make_unique<video::Sunrise_video>(screen_width, screen_height, 30.0, 1);
}

template <typename Fn>
double time_ms(Fn&& fn)
{
    const Clock::time_point start = Clock::now();
    fn();
    return ms_since(start);
}

void recycle(img::Imagef&& frame) { img::Frame_pool::instance().recycle(std::move(frame)); }

} // namespace

std::map<std::string, Span_time> fold_trace(const telemetry::Registry& registry)
{
    std::ostringstream text;
    registry.write_chrome_trace(text);
    telemetry::json::Value trace;
    std::string error;
    if (!telemetry::json::parse(text.str(), trace, &error)) {
        throw std::runtime_error("unreadable trace: " + error);
    }

    struct Span {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        double children_us = 0.0;
    };
    std::map<int, std::vector<Span>> by_thread;
    for (const telemetry::json::Value& event : trace["traceEvents"].as_array()) {
        if (event.string_or("ph", "") != "X") continue;
        const double start = event.number_or("ts", 0.0);
        by_thread[static_cast<int>(event.number_or("tid", 0.0))].push_back(
            {event.string_or("name", "?"), start, start + event.number_or("dur", 0.0), 0.0});
    }

    std::map<std::string, Span_time> folded;
    const auto close = [&folded](const Span& span) {
        Span_time& time = folded[span.name];
        const double duration_us = span.end_us - span.start_us;
        time.total_s += 1e-6 * duration_us;
        time.self_s += 1e-6 * std::max(0.0, duration_us - span.children_us);
        ++time.count;
    };
    for (auto& thread : by_thread) {
        std::vector<Span>& spans = thread.second;
        // A parent opens no later than its children; on a tie the longer
        // span is the parent.
        std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
            return a.start_us != b.start_us ? a.start_us < b.start_us : a.end_us > b.end_us;
        });
        std::vector<Span*> open;
        for (Span& span : spans) {
            while (!open.empty() && open.back()->end_us <= span.start_us) {
                close(*open.back());
                open.pop_back();
            }
            if (!open.empty()) {
                open.back()->children_us += std::min(span.end_us, open.back()->end_us) - span.start_us;
            }
            open.push_back(&span);
        }
        for (; !open.empty(); open.pop_back()) close(*open.back());
    }
    return folded;
}

Layer_replay replay_layers(const Workload& workload, const Inputs& inputs,
                           const std::vector<core::Data_frame_result>& frames)
{
    const util::Parallel_scope parallel_scope(workload.threads);
    const Rig rig = make_rig(workload, inputs);
    const video::Playback_schedule schedule{rig.inframe.display_fps, rig.inframe.video_fps};
    const std::unique_ptr<video::Video_source> generator = make_generator(workload.video);

    // The repetition's display frames, from the same encoder or sender.
    std::optional<core::Encode_stage> encoder;
    std::optional<core::Inframe_sender> sender;
    if (workload.session) {
        sender.emplace(rig.inframe, inputs.message, true, rig.session);
    } else {
        core::Encode_stage::Options options;
        options.payloads = core::make_random_payload_source(
            inputs.payload_seed, rig.inframe.geometry.payload_bits_per_frame());
        encoder.emplace(rig.inframe, std::move(options));
    }
    channel::Display_model display(rig.display);
    const channel::Camera_optics optics(rig.camera, screen_width, screen_height);
    channel::Impairment_chain impairments = channel::make_impairment_chain(rig.impairments);
    const core::Inframe_decoder decoder(rig.decoder);

    std::vector<double> frame_ms, copy_ms, emit_ms, optics_ms, noise_ms, impair_ms, metrics_ms;
    img::Imagef video_frame;
    std::int64_t shown = -1;
    std::int64_t capture = -1;
    const std::int64_t display_frames = std::min(workload.display_frames, replay_display_frames);
    for (std::int64_t d = 0; d < display_frames; ++d) {
        const std::int64_t v = schedule.video_frame_for_display(d);
        if (v != shown) {
            frame_ms.push_back(time_ms([&] { video_frame = generator->frame(v); }));
            shown = v;
        }
        img::Imagef on_screen =
            sender ? sender->next_display_frame(video_frame) : encoder->encode(video_frame);
        img::Imagef emitted;
        emit_ms.push_back(time_ms([&] { emitted = display.emit(on_screen); }));
        img::Imagef sensor;
        optics_ms.push_back(time_ms([&] { sensor = optics.to_sensor(emitted); }));

        // One replayed capture per camera frame. The projected frame stands
        // in for the integrated exposure: same size, same levels.
        const auto k = static_cast<std::int64_t>(static_cast<double>(d) / rig.inframe.display_fps
                                                 * rig.camera.fps);
        if (k != capture) {
            capture = k;
            img::Imagef integrated = sensor;
            noise_ms.push_back(
                time_ms([&] { channel::apply_sensor_noise_rows(integrated, rig.camera, k); }));
            if (!impairments.empty()) {
                impair_ms.push_back(time_ms([&] { impairments.apply(integrated, k); }));
            }
            metrics_ms.push_back(time_ms([&] { (void)decoder.block_metrics(integrated); }));
        }
        recycle(std::move(on_screen));
        recycle(std::move(emitted));
        recycle(std::move(sensor));
    }

    // A Cached_video hit is what Video_stage pays per display frame once
    // the frame is rendered; make_rig's metering cached frame 0.
    for (std::int64_t d = 0; d < display_frames; ++d) {
        img::Imagef copy;
        copy_ms.push_back(time_ms([&] { copy = rig.video->frame(0); }));
    }

    Layer_replay replay;
    replay.video_frame_ms = median(frame_ms);
    replay.video_copy_ms = median(copy_ms);
    replay.emit_ms = median(emit_ms);
    replay.optics_ms = median(optics_ms);
    replay.noise_ms = median(noise_ms);
    replay.impair_ms = median(impair_ms);
    replay.metrics_ms = median(metrics_ms);
    if (workload.session) {
        const core::Frame_codec codec(rig.inframe.geometry.payload_bits_per_frame(), rig.session);
        const auto chunks = coding::chunk_message(inputs.message, codec.max_payload_bytes());
        std::vector<double> build_ms, parse_ms;
        for (std::size_t s = 0; s < frames.size(); ++s) {
            build_ms.push_back(time_ms([&] {
                (void)codec.build(static_cast<std::uint32_t>(s), chunks[s % chunks.size()]);
            }));
        }
        for (const core::Data_frame_result& frame : frames) {
            parse_ms.push_back(time_ms([&] {
                (void)codec.parse(frame.gob.payload_bits, frame.gob.payload_bit_trusted);
            }));
        }
        replay.build_ms = median(build_ms);
        replay.parse_ms = median(parse_ms);
    }
    return replay;
}

} // namespace perfbench
