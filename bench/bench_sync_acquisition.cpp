// Synchronization acquisition (extension beyond the paper's strawman).
//
// The paper assumes the receiver knows where data frames start; the
// Phase_estimator recovers that alignment from captures alone. This bench
// measures time-to-lock and post-lock decode quality across start offsets
// and capture conditions. The broadcast side is the standard stage graph;
// the unsynchronized receiver is a sink stage around Synced_decoder. The
// transmitter pre-rolls `offset` display frames through the encode stage
// before the link exists — exactly the situation a late-joining receiver
// faces.

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "core/sync.hpp"
#include "imgproc/pool.hpp"
#include "video/playback.hpp"

#include <cstdio>

namespace {

using namespace inframe;
using namespace inframe::core;

constexpr int width = 480;
constexpr int height = 270;

struct Lock_result {
    bool locked = false;
    double lock_time_s = 0.0;
    int frames_decoded = 0;
    int confident_blocks = 0;
    int wrong_blocks = 0;
};

Lock_result run_acquisition(int offset_display_frames, double shot_noise, double duration_s)
{
    auto config = paper_config(width, height);
    config.geometry = coding::fitted_geometry(width, height, 2);
    config.tau = 12;

    channel::Display_params display;
    channel::Camera_params camera;
    camera.sensor_width = width;
    camera.sensor_height = height;
    camera.shot_noise_scale = shot_noise;

    auto decoder_params = make_decoder_params(config, width, height);
    decoder_params.detector = Detector::matched;
    Synced_decoder decoder(decoder_params);

    Encode_stage::Options encode_options;
    encode_options.payloads = make_random_payload_source(
        41 + static_cast<std::uint64_t>(offset_display_frames),
        config.geometry.payload_bits_per_frame());

    Pipeline pipeline;
    pipeline.emplace_stage<Video_stage>(
        std::make_shared<video::Solid_video>(width, height, 140.0f),
        video::Playback_schedule{});
    auto& encode = pipeline.emplace_stage<Encode_stage>(config, std::move(encode_options));
    pipeline.emplace_stage<Link_stage>(display, camera, width, height);

    Lock_result result;
    const double offset_s = offset_display_frames / 120.0;
    const Inframe_encoder& encoder = encode.encoder();
    pipeline.emplace_stage<Function_stage>("sync", [&](Frame_token token) {
        const bool was_locked = decoder.locked();
        const auto decoded = decoder.push_capture(token.image, token.time_s);
        if (!was_locked && decoder.locked()) {
            result.locked = true;
            result.lock_time_s = token.time_s;
        }
        for (const auto& frame : decoded) {
            if (frame.captures_used == 0) continue;
            ++result.frames_decoded;
            // The estimator's offset is exact only up to the capture
            // assignment equivalence class; compare against the
            // best-matching transmitted frame near the nominal index.
            const double tx_time =
                frame.data_frame_index * (config.tau / 120.0) + *decoder.offset() + offset_s;
            const auto nominal =
                static_cast<std::int64_t>(std::lround(tx_time * 120.0)) / config.tau;
            int best_wrong = -1;
            int best_confident = 0;
            for (std::int64_t tx = nominal - 1; tx <= nominal + 1; ++tx) {
                const auto* truth = encoder.transmitted_block_bits(tx);
                if (truth == nullptr) continue;
                int wrong = 0;
                int confident = 0;
                for (std::size_t b = 0; b < frame.decisions.size(); ++b) {
                    if (frame.decisions[b] == coding::Block_decision::unknown) continue;
                    ++confident;
                    const std::uint8_t bit =
                        frame.decisions[b] == coding::Block_decision::one ? 1 : 0;
                    wrong += bit != (*truth)[b];
                }
                if (best_wrong < 0 || wrong < best_wrong) {
                    best_wrong = wrong;
                    best_confident = confident;
                }
            }
            if (best_wrong >= 0) {
                result.confident_blocks += best_confident;
                result.wrong_blocks += best_wrong;
            }
        }
        std::vector<Frame_token> out;
        out.push_back(std::move(token)); // runtime recycles sink frames
        return out;
    });

    // Transmitter ran for `offset` display frames before the receiver's
    // clock started: pre-roll the encode stage directly and discard the
    // emitted frames.
    const img::Imagef video(width, height, 1, 140.0f);
    for (int j = 0; j < offset_display_frames; ++j) {
        img::Frame_pool::instance().recycle(encode.encode(video));
    }

    // The sync sink reads encoder truth while the encode stage runs, so
    // this graph must stay serial (frames_in_flight = 1, the default).
    const auto total = static_cast<std::int64_t>(duration_s * 120.0);
    pipeline.run(total);
    return result;
}

} // namespace

int main(int argc, char** argv)
{
    const auto args = bench::parse_args(argc, argv);
    telemetry::Session telemetry_session(args.telemetry);
    const double duration = bench::scale_duration(args.scale, 2.0, 3.0, 5.0);

    bench::print_header("Sync acquisition: locking onto an unsynchronized broadcast",
                        "extension: the paper assumes a synchronized start; the phase "
                        "estimator recovers the data-frame alignment from captures alone");

    util::Table table({"start offset (display frames)", "shot noise", "locked", "lock time s",
                       "frames decoded", "block error rate"});
    for (const int offset : {0, 3, 7, 11}) {
        for (const double noise : {0.12, 0.3}) {
            const auto r = run_acquisition(offset, noise, duration);
            table.add_row({static_cast<long long>(offset), noise,
                           std::string(r.locked ? "yes" : "NO"), r.lock_time_s,
                           static_cast<long long>(r.frames_decoded),
                           r.confident_blocks > 0
                               ? static_cast<double>(r.wrong_blocks) / r.confident_blocks
                               : 0.0});
        }
    }
    bench::emit_table(args, "sync_acquisition", table);
    std::printf("lock time includes the %d-capture observation window the estimator needs.\n",
                Phase_estimator::min_captures);
    return 0;
}
