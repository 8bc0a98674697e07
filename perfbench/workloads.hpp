// The benchmark's workloads and one repetition of each.
//
// Every workload runs the paper's rig: a 1920x1080 display at 120 Hz
// captured at 1280x720 and 29.97 fps, delta 20, the default display and
// camera, auto exposure metered once against the first video frame. A
// repetition assembles a fresh core::Pipeline from the public stages,
// wraps each stage in a Timed_stage, and runs a fixed number of display
// frames.
#pragma once

#include "channel/link.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "telemetry/telemetry.hpp"
#include "video/source.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

namespace channel = inframe::channel;
namespace coding = inframe::coding;
namespace core = inframe::core;
namespace img = inframe::img;
namespace telemetry = inframe::telemetry;
namespace util = inframe::util;
namespace video = inframe::video;

constexpr int screen_width = 1920;
constexpr int screen_height = 1080;

enum class Video_kind { gray, sunrise };

struct Workload {
    std::string name;
    Video_kind video = Video_kind::gray;
    int tau = 12;
    int threads = 1;
    int frames_in_flight = 1;
    // Session path: Send_stage/Receive_stage with Reed-Solomon framing, a
    // seeded impairment chain and erasure-aware decoding.
    bool session = false;
    std::int64_t display_frames = 0; // per repetition
};

// Thread counts are already capped at nproc.
std::vector<Workload> workloads();
std::optional<Workload> find_workload(const std::string& name);

// Everything a repetition draws from the workload seed. The impairment
// chain's realization is part of the session workload instead: at this
// run length a seed-drawn one moves payload_ber by a third between seeds.
struct Inputs {
    std::uint64_t payload_seed = 0;
    std::uint64_t camera_seed = 0;
    std::vector<std::uint8_t> message; // session workloads only
};
Inputs make_inputs(const Workload& workload, std::uint64_t seed);

// The configured rig, shared by the repetitions and the layer replay.
struct Rig {
    std::shared_ptr<const video::Video_source> video;
    core::Inframe_config inframe;
    channel::Display_params display;
    channel::Camera_params camera; // after auto exposure
    channel::Impairment_config impairments;
    core::Decoder_params decoder;
    core::Session_options session;
};
Rig make_rig(const Workload& workload, const Inputs& inputs);

// Fig. 7 accounting of one repetition against ground truth, computed the
// way run_link_experiment does.
struct Quality {
    int data_frames = 0;              // fully transmitted data frames
    double goodput_kbps = 0.0;
    double available_gob_ratio = 0.0; // mean over data frames
    double payload_ber = 0.0;         // decoded payload vs transmitted
    double trusted_ber = 0.0;         // errors inside available, parity-OK GOBs
    double ops_failed_ratio = 0.0;    // transmitted GOBs not delivered correct
    double captures_used_ratio = 0.0; // captures that voted / delivered
};

enum class Rep_kind {
    timed,
    traced,  // timed with a telemetry registry installed
    warm_up, // untimed; on the session path it also decodes beside the
             // receiver, for the Fig. 7 accounting
};

struct Rep_result {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double sim_s = 0.0;
    double peak_rss_mb = 0.0; // process peak over set-up and run
    core::Pipeline_metrics pipeline;
    // Per push() of the encode/send, link and decode/receive stages.
    std::vector<double> encode_ms, link_ms, decode_ms;
    // Wall-clock and process CPU seconds at each display frame's entry into
    // the pipeline, plus one entry at the end of the run.
    std::vector<double> frame_start_s, frame_start_cpu_s;

    // Correctness gate inputs: CRC32 of the decoded output (payload bits,
    // or the received message and parser counts) and whether the output
    // passed its own check.
    std::uint32_t output_crc = 0;
    bool output_ok = false;
    std::string output_problem;

    double message_complete_s = -1.0;  // session only
    std::int64_t frames_rejected = -1; // session only

    Quality quality; // session workloads: Rep_kind::warm_up only
    std::vector<core::Data_frame_result> frames; // session, Rep_kind::warm_up only
    std::unique_ptr<telemetry::Registry> trace;  // Rep_kind::traced only
};

Rep_result run_rep(const Workload& workload, const Inputs& inputs, Rep_kind kind);

// Shortest time to set a repetition up (rig, metering, stages) over
// several tries.
double min_setup_s(const Workload& workload, const Inputs& inputs);

} // namespace perfbench
