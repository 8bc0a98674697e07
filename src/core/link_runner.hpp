// End-to-end experiment harnesses.
//
// run_link_experiment assembles the Video -> Encode -> Link -> Decode
// stage graph (core::Pipeline), drives video + random data through it,
// and accounts throughput the way the paper's Fig. 7 does
// (available-GOB ratio, GOB error rate, goodput).
//
// run_flicker_experiment drives encoder output into the simulated observer
// panel — the stand-in for the paper's Fig. 6 user study — on a serial
// Video -> assess graph.
#pragma once

#include "channel/link.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "hvs/flicker.hpp"
#include "telemetry/telemetry.hpp"
#include "video/playback.hpp"

#include <functional>
#include <memory>

namespace inframe::core {

struct Link_experiment_config {
    std::shared_ptr<const video::Video_source> video;
    Inframe_config inframe;
    channel::Display_params display;
    channel::Camera_params camera;

    // Fault-injection chain applied to the capture stream (drops, stale
    // duplication, exposure drift, shake, tear, occlusion). Defaults to
    // the clean lab link.
    channel::Impairment_config impairments;

    // Meter the camera against the first video frame (channel::auto_expose)
    // before the run, as a phone camera locked once at session start would.
    bool auto_exposure = true;

    // Decoder overrides applied on top of make_decoder_params.
    Detector detector = Detector::noise_level;
    bool texture_compensation = true;
    double hysteresis = 0.2;
    std::optional<img::Homography> decoder_capture_to_screen;

    // Erasure-aware receive path (Decoder_params::erasure_aware): flagged
    // blocks become erasures and GOB parity fills single-erasure GOBs.
    bool erasure_aware = false;

    double duration_s = 4.0;
    std::uint64_t data_seed = util::Prng::default_seed;

    // Payload bits per data frame, pulled lazily as frames go on air.
    // Empty = the paper's pseudo-random generator seeded with data_seed
    // (make_random_payload_source).
    Payload_source payloads;

    // Frames-in-flight window for the stage-graph executor: 1 = serial,
    // >1 overlaps stages across display frames (one thread per stage,
    // bounded queues). Output is bit-identical for every value.
    int frames_in_flight = 1;

    // Telemetry export: a non-empty trace_dir wraps the run in a
    // telemetry::Session writing trace.json / frames.jsonl /
    // metrics.json there. Purely observational — results are
    // bit-identical with tracing on or off. Ignored (the outer scope
    // wins) when a session is already active.
    telemetry::Config telemetry;
};

struct Link_experiment_result {
    double duration_s = 0.0;
    int data_frames = 0;
    int captures = 0;

    // Fig. 7 metrics.
    double available_gob_ratio = 0.0; // mean over data frames
    double gob_error_rate = 0.0;      // erroneous / available
    double goodput_kbps = 0.0;        // trusted payload bits per second
    double raw_rate_kbps = 0.0;       // capacity before losses

    // Ground-truth quality (the simulator knows the transmitted bits).
    double block_error_rate = 0.0;    // wrong decisions / confident decisions
    double unknown_block_ratio = 0.0; // unknown / all blocks
    double trusted_bit_error_rate = 0.0; // errors inside parity-OK GOBs

    // End-to-end payload BER: decoded frame payload (untrusted positions
    // carry the fill bit) against the transmitted payload, over every
    // payload bit of every counted frame. The headline number the
    // fault-injection bench compares across decode modes.
    double payload_bit_error_rate = 0.0;

    // Fault-injection accounting.
    double recovered_gob_ratio = 0.0;  // parity-filled GOBs / all GOBs
    double occluded_block_ratio = 0.0; // occlusion-flagged / all blocks
    std::int64_t captures_dropped = 0; // swallowed by the impairment chain

    // Stage-graph observability for this run: per-stage wall time, queue
    // occupancy/waits, Frame_pool hit/miss deltas. Not part of the
    // deterministic payload — timings vary run to run.
    Pipeline_metrics pipeline;
};

// Throws Contract_violation unless the panel refreshes at the rate the
// encoder and decoder assume (display.refresh_hz == inframe.display_fps):
// the link and the decoder's data-frame grouping share one display clock.
Link_experiment_result run_link_experiment(const Link_experiment_config& config);

struct Flicker_experiment_config {
    std::shared_ptr<const video::Video_source> video;
    Inframe_config inframe;
    hvs::Flicker_options options;
    int observers = 8;
    std::uint64_t observer_seed = 42;
    double duration_s = 2.0;
    std::uint64_t data_seed = util::Prng::default_seed;

    // Same contract as Link_experiment_config::telemetry.
    telemetry::Config telemetry;

    // Optional replacement for the InFrame encoder: maps (video frame,
    // display index) to the displayed frame. Used by the Fig. 3 naive
    // designs bench. When empty, the InFrame encoder is used.
    std::function<img::Imagef(const img::Imagef&, std::int64_t)> frame_producer;
};

hvs::Panel_result run_flicker_experiment(const Flicker_experiment_config& config);

} // namespace inframe::core
