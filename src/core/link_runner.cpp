#include "core/link_runner.hpp"

#include "core/session.hpp"
#include "core/stages.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/pool.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#include <optional>
#include <utility>

namespace inframe::core {

Link_experiment_result run_link_experiment(const Link_experiment_config& config)
{
    util::expects(config.video != nullptr, "link experiment: video source required");
    config.inframe.validate();
    const std::int64_t total_display_frames =
        channel::display_frame_count(config.duration_s, config.inframe.display_fps);
    util::expects(config.video->width() == config.inframe.geometry.screen_width
                      && config.video->height() == config.inframe.geometry.screen_height,
                  "link experiment: video size must match geometry");
    util::expects(config.display.refresh_hz == config.inframe.display_fps,
                  "link experiment: display refresh rate must equal the InFrame display rate");

    // Install the experiment's thread budget for every stage below
    // (encoder embed, channel kernels, decoder metrics). Restored on exit.
    const util::Parallel_scope parallel_scope(config.inframe.threads);

    // Trace export for this run; inert when no trace_dir is configured or
    // an outer session is already collecting.
    telemetry::Session telemetry_session(config.telemetry);

    Decoder_params decoder_params = make_decoder_params(
        config.inframe, config.camera.sensor_width, config.camera.sensor_height);
    decoder_params.detector = config.detector;
    decoder_params.texture_compensation = config.texture_compensation;
    decoder_params.hysteresis = config.hysteresis;
    decoder_params.capture_to_screen = config.decoder_capture_to_screen;
    decoder_params.erasure_aware = config.erasure_aware;

    channel::Camera_params camera = config.camera;
    if (config.auto_exposure) {
        camera = channel::auto_expose(camera, img::mean(config.video->frame(0)));
    }

    // Assemble the paper's dataflow as a stage graph. Payload bits come
    // from the config's lazy source (default: the paper's "pseudo-random
    // data generator with a pre-set seed"), pulled as frames go on air.
    Pipeline pipeline;
    pipeline.emplace_stage<Video_stage>(
        config.video,
        video::Playback_schedule{config.inframe.display_fps, config.inframe.video_fps});
    Encode_stage::Options encode_options;
    encode_options.payloads =
        config.payloads ? config.payloads
                        : make_random_payload_source(
                              config.data_seed, config.inframe.geometry.payload_bits_per_frame());
    Encode_stage& encode =
        pipeline.emplace_stage<Encode_stage>(config.inframe, std::move(encode_options));
    Link_stage& link = pipeline.emplace_stage<Link_stage>(
        config.display, camera, config.inframe.geometry.screen_width,
        config.inframe.geometry.screen_height, config.impairments);
    Decode_stage& decode = pipeline.emplace_stage<Decode_stage>(decoder_params);

    Pipeline_options pipeline_options;
    pipeline_options.frames_in_flight = config.frames_in_flight;
    Pipeline_metrics pipeline_metrics = pipeline.run(total_display_frames, pipeline_options);

    const Inframe_encoder& encoder = encode.encoder();
    const std::vector<Data_frame_result>& results = decode.results();

    Link_experiment_result out;
    out.pipeline = std::move(pipeline_metrics);
    out.duration_s = config.duration_s;
    out.raw_rate_kbps = config.inframe.raw_payload_rate() / 1000.0;

    util::Running_stats available;
    util::Running_stats errors;
    std::size_t good_bits = 0;
    std::size_t confident_blocks = 0;
    std::size_t wrong_blocks = 0;
    std::size_t unknown_blocks = 0;
    std::size_t total_blocks = 0;
    std::size_t trusted_bits = 0;
    std::size_t trusted_bit_errors = 0;
    std::size_t payload_bits_total = 0;
    std::size_t payload_bit_errors = 0;
    std::size_t recovered_gobs = 0;
    std::size_t counted_gobs = 0;
    std::size_t occluded_blocks = 0;
    int captures_used = 0;

    const auto& geometry = config.inframe.geometry;

    // Transmitted payload bits of one data frame, recovered from the
    // block-bit truth by dropping each GOB's parity block (the inverse of
    // encode_gob_parity's insertion).
    const auto truth_payload = [&](const std::vector<std::uint8_t>& truth_blocks) {
        std::vector<std::uint8_t> payload;
        payload.reserve(static_cast<std::size_t>(geometry.payload_bits_per_frame()));
        const int m = geometry.gob_size;
        for (int gy = 0; gy < geometry.gobs_y(); ++gy) {
            for (int gx = 0; gx < geometry.gobs_x(); ++gx) {
                for (int j = 0; j < m; ++j) {
                    for (int i = 0; i < m; ++i) {
                        if (j == m - 1 && i == m - 1) continue;
                        payload.push_back(truth_blocks[static_cast<std::size_t>(
                            geometry.block_index(gx * m + i, gy * m + j))]);
                    }
                }
            }
        }
        return payload;
    };

    for (const auto& result : results) {
        // Only fully transmitted data frames count (the tail may be cut).
        if ((result.data_frame_index + 1) * config.inframe.tau > total_display_frames) continue;
        const auto* truth = encoder.transmitted_block_bits(result.data_frame_index);
        if (truth == nullptr) continue;
        ++out.data_frames;
        captures_used += result.captures_used;
        available.add(result.gob.available_ratio);
        errors.add(result.gob.error_rate);
        good_bits += result.gob.good_payload_bits;
        recovered_gobs += result.gob.recovered_gobs;
        counted_gobs += result.gob.gobs.size();
        occluded_blocks += static_cast<std::size_t>(result.occluded_blocks);

        // End-to-end payload BER against the transmitted payload.
        const auto expected_payload = truth_payload(*truth);
        for (std::size_t b = 0; b < expected_payload.size(); ++b) {
            ++payload_bits_total;
            if (result.gob.payload_bits[b] != expected_payload[b]) ++payload_bit_errors;
        }

        for (std::size_t b = 0; b < result.decisions.size(); ++b) {
            ++total_blocks;
            const auto decision = result.decisions[b];
            if (decision == coding::Block_decision::unknown) {
                ++unknown_blocks;
                continue;
            }
            ++confident_blocks;
            const std::uint8_t bit = decision == coding::Block_decision::one ? 1 : 0;
            if (bit != (*truth)[b]) ++wrong_blocks;
        }

        // True errors hiding inside trusted (available, parity-OK) GOBs.
        const int m = geometry.gob_size;
        for (int gy = 0; gy < geometry.gobs_y(); ++gy) {
            for (int gx = 0; gx < geometry.gobs_x(); ++gx) {
                const auto& gob =
                    result.gob.gobs[static_cast<std::size_t>(gy * geometry.gobs_x() + gx)];
                if (!gob.available || !gob.parity_ok) continue;
                int payload_slot = 0;
                for (int jj = 0; jj < m; ++jj) {
                    for (int ii = 0; ii < m; ++ii) {
                        if (jj == m - 1 && ii == m - 1) continue; // parity block
                        const auto block =
                            static_cast<std::size_t>(geometry.block_index(gx * m + ii, gy * m + jj));
                        ++trusted_bits;
                        const std::uint8_t decoded =
                            gob.payload_bits[static_cast<std::size_t>(payload_slot++)];
                        if (decoded != (*truth)[block]) ++trusted_bit_errors;
                    }
                }
            }
        }
    }

    out.captures = captures_used;
    out.available_gob_ratio = available.mean();
    out.gob_error_rate = errors.mean();
    const double effective_duration =
        out.data_frames / config.inframe.data_frame_rate();
    out.goodput_kbps =
        effective_duration > 0.0 ? static_cast<double>(good_bits) / effective_duration / 1000.0
                                 : 0.0;
    out.block_error_rate = confident_blocks > 0
                               ? static_cast<double>(wrong_blocks) / confident_blocks
                               : 0.0;
    out.unknown_block_ratio =
        total_blocks > 0 ? static_cast<double>(unknown_blocks) / total_blocks : 0.0;
    out.trusted_bit_error_rate =
        trusted_bits > 0 ? static_cast<double>(trusted_bit_errors) / trusted_bits : 0.0;
    out.payload_bit_error_rate =
        payload_bits_total > 0 ? static_cast<double>(payload_bit_errors) / payload_bits_total
                               : 0.0;
    out.recovered_gob_ratio =
        counted_gobs > 0 ? static_cast<double>(recovered_gobs) / counted_gobs : 0.0;
    out.occluded_block_ratio =
        total_blocks > 0 ? static_cast<double>(occluded_blocks) / total_blocks : 0.0;
    out.captures_dropped = link.captures_dropped();
    return out;
}

hvs::Panel_result run_flicker_experiment(const Flicker_experiment_config& config)
{
    util::expects(config.video != nullptr, "flicker experiment: video source required");
    util::expects(config.observers >= 1, "flicker experiment: need at least one observer");
    config.inframe.validate();
    const std::int64_t total_display_frames =
        channel::display_frame_count(config.duration_s, config.inframe.display_fps);

    const util::Parallel_scope parallel_scope(config.inframe.threads);

    telemetry::Session telemetry_session(config.telemetry);

    hvs::Flicker_assessor assessor(
        config.inframe.geometry.screen_width, config.inframe.geometry.screen_height,
        config.inframe.display_fps, hvs::make_observer_panel(config.observers, config.observer_seed),
        config.options);

    // The displayed frame comes from the InFrame encoder unless the caller
    // supplies a frame_producer.
    std::optional<Encode_stage> encode;
    if (!config.frame_producer) {
        Encode_stage::Options encode_options;
        encode_options.payloads = make_random_payload_source(
            config.data_seed, config.inframe.geometry.payload_bits_per_frame());
        encode.emplace(config.inframe, std::move(encode_options));
    }

    // Video -> assess, serially. The assess stage makes the shown frame and
    // scores it against the video frame it came from: the paper's
    // side-by-side protocol has observers rate the difference from the
    // unmodified video, not the video's own motion.
    Pipeline pipeline;
    pipeline.emplace_stage<Video_stage>(
        config.video,
        video::Playback_schedule{config.inframe.display_fps, config.inframe.video_fps});
    pipeline.emplace_stage<Function_stage>("assess", [&](Frame_token token) {
        img::Imagef shown = encode ? encode->encode(token.image)
                                   : config.frame_producer(token.image, token.index);
        assessor.push_frame_pair(shown, token.image);
        img::Frame_pool::instance().recycle(std::move(shown));
        img::Frame_pool::instance().recycle(std::move(token.image));
        return std::vector<Frame_token>{};
    });
    pipeline.run(total_display_frames);

    hvs::Panel_result result;
    util::Running_stats stats;
    for (const hvs::Flicker_result& r : assessor.results()) {
        result.scores.push_back(r.score);
        stats.add(r.score);
    }
    result.mean_score = stats.mean();
    result.stddev_score = stats.stddev();
    return result;
}

} // namespace inframe::core
