// Per-layer costs for the traced run: self time folded from the trace,
// and layer costs replayed through each layer's public functions.
#pragma once

#include "workloads.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Total and self time of one span name across a trace. A span's self
// time is its duration minus the part its child spans (same thread,
// nested in time) cover, so nested spans such as pool.batch are never
// counted twice.
struct Span_time {
    double total_s = 0.0;
    double self_s = 0.0;
    std::int64_t count = 0;
};
std::map<std::string, Span_time> fold_trace(const telemetry::Registry& registry);

// Layer costs replayed through the public layer functions on the display
// frames of a repetition; medians, ms per call.
struct Layer_replay {
    double video_frame_ms = 0.0; // uncached video render, per new video frame
    double video_copy_ms = 0.0;  // Cached_video hit, per display frame
    double emit_ms = 0.0;        // Display_model::emit, per display frame
    double optics_ms = 0.0;      // Camera_optics::to_sensor, per display frame
    double noise_ms = 0.0;       // apply_sensor_noise_rows, per capture
    double impair_ms = 0.0;      // Impairment_chain::apply, per capture; 0 without one
    double metrics_ms = 0.0;     // Inframe_decoder::block_metrics, per capture
    double build_ms = -1.0;      // Frame_codec::build, per data frame; session only
    double parse_ms = -1.0;      // Frame_codec::parse, per data frame; session only
};

// `frames` are the warm-up repetition's decoded data frames, so the
// session parse replay parses exactly what the receiver parsed.
Layer_replay replay_layers(const Workload& workload, const Inputs& inputs,
                           const std::vector<core::Data_frame_result>& frames);

} // namespace perfbench
