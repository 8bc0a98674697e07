// Parallel scaling — end-to-end simulation throughput along both axes of
// the execution layer:
//
//   1. data parallelism: row-parallel kernels at 1, 2, 4 and
//      hardware_concurrency threads (frames_in_flight = 1), and
//   2. task parallelism: the stage-graph executor overlapping stages
//      across display frames at frames_in_flight 1, 2, 4, 8 (threads = 1).
//
// Because both layers are deterministic by construction, the decoded
// results are also cross-checked: every configuration must reproduce the
// serial goodput and payload bit error rate bit for bit, so the tables
// prove both the speedup and that it cost nothing in fidelity.
//
// On a single-core builder the speedup columns will sit near 1.0x — the
// interesting output there is that oversubscription does not corrupt or
// meaningfully slow the pipeline. The final section prints the pipeline
// observability counters (per-stage wall time, queue occupancy, frame-pool
// hits/misses) for the frames_in_flight = 4 run.

#include "bench_common.hpp"
#include "core/link_runner.hpp"
#include "util/thread_pool.hpp"

#include <chrono>
#include <cstdio>
#include <set>
#include <vector>

namespace {

using namespace inframe;

constexpr int width = 960;
constexpr int height = 540;

core::Link_experiment_config make_config(double duration, int threads, int frames_in_flight)
{
    core::Link_experiment_config config;
    config.video = video::make_sunrise_video(width, height);
    config.inframe = core::paper_config(width, height);
    config.inframe.tau = 12;
    config.camera.shot_noise_scale = 0.2;
    config.camera.read_noise_sigma = 1.5;
    config.camera.quantize = true;
    config.duration_s = duration;
    config.inframe.threads = threads;
    config.frames_in_flight = frames_in_flight;
    return config;
}

void print_pipeline_metrics(const bench::Args& args, const core::Pipeline_metrics& metrics)
{
    std::printf("pipeline observability (frames_in_flight=%d, wall %.2f s, %lld head tokens):\n",
                metrics.frames_in_flight, metrics.wall_s,
                static_cast<long long>(metrics.head_tokens));
    util::Table stages({"stage", "busy s", "share", "tokens in", "tokens out",
                        "mean queue depth", "input waits", "output waits"});
    // Queue fields are -1 when the stage has no queue on that side
    // (serial mode, head input, sink output); show those as "-".
    const auto count_cell = [](std::int64_t v) -> util::Table::Cell {
        if (v < 0) return std::string("-");
        return static_cast<long long>(v);
    };
    for (const auto& s : metrics.stages) {
        stages.add_row({s.name, s.wall_s,
                        metrics.wall_s > 0.0 ? s.wall_s / metrics.wall_s : 0.0,
                        static_cast<long long>(s.tokens_in),
                        static_cast<long long>(s.tokens_out),
                        s.mean_input_queue_depth < 0.0 ? util::Table::Cell(std::string("-"))
                                                       : util::Table::Cell(s.mean_input_queue_depth),
                        count_cell(s.input_waits), count_cell(s.output_waits)});
    }
    bench::emit_table(args, "scaling_stage_metrics", stages);
    std::printf("frame pool: %lld hits, %lld misses\n",
                static_cast<long long>(metrics.pool_hits),
                static_cast<long long>(metrics.pool_misses));
}

} // namespace

int main(int argc, char** argv)
{
    const auto args = bench::parse_args(argc, argv);
    telemetry::Session telemetry_session(args.telemetry);
    const double duration = bench::scale_duration(args.scale, 0.5, 2.0, 6.0);

    bench::print_header(
        "Parallel scaling: link-experiment throughput vs threads and frames in flight",
        "deterministic row-parallel kernels + stage-graph overlap; identical decoded "
        "output in every configuration");

    const int hw = util::Thread_pool::hardware_threads();
    std::printf("hardware concurrency: %d\n\n", hw);

    double serial_wall = 0.0;
    double serial_goodput = 0.0;
    double serial_payload_ber = 0.0;

    // --- axis 1: kernel threads (frames_in_flight = 1) -------------------
    {
        std::set<int> counts = {1, 2, 4, hw};
        util::Table table({"threads", "wall s", "sim s / wall s", "speedup vs serial",
                           "goodput kbps", "matches serial"});
        for (const int threads : counts) {
            const auto config = make_config(duration, threads, 1);
            const auto start = std::chrono::steady_clock::now();
            const auto result = core::run_link_experiment(config);
            const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
            if (threads == 1) {
                serial_wall = wall.count();
                serial_goodput = result.goodput_kbps;
                serial_payload_ber = result.payload_bit_error_rate;
            }
            const bool matches = result.goodput_kbps == serial_goodput
                                 && result.payload_bit_error_rate == serial_payload_ber;
            table.add_row({static_cast<long long>(threads), wall.count(),
                           duration / wall.count(),
                           serial_wall > 0.0 ? serial_wall / wall.count() : 1.0,
                           result.goodput_kbps, std::string(matches ? "yes" : "NO")});
            std::printf("  done: threads=%d in %.2f s (goodput %.2f kbps%s)\n", threads,
                        wall.count(), result.goodput_kbps,
                        matches ? "" : " — MISMATCH vs serial");
        }
        std::printf("\n");
        bench::emit_table(args, "scaling_threads", table);
    }

    // --- axis 2: frames in flight (threads = 1) --------------------------
    {
        util::Table table({"frames in flight", "wall s", "sim s / wall s",
                           "speedup vs fif=1", "goodput kbps", "matches serial"});
        double fif1_wall = 0.0;
        core::Pipeline_metrics overlap_metrics;
        for (const int fif : {1, 2, 4, 8}) {
            const auto config = make_config(duration, 1, fif);
            const auto start = std::chrono::steady_clock::now();
            const auto result = core::run_link_experiment(config);
            const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
            if (fif == 1) fif1_wall = wall.count();
            if (fif == 4) overlap_metrics = result.pipeline;
            const bool matches = result.goodput_kbps == serial_goodput
                                 && result.payload_bit_error_rate == serial_payload_ber;
            table.add_row({static_cast<long long>(fif), wall.count(),
                           duration / wall.count(),
                           fif1_wall > 0.0 ? fif1_wall / wall.count() : 1.0,
                           result.goodput_kbps, std::string(matches ? "yes" : "NO")});
            std::printf("  done: frames_in_flight=%d in %.2f s (goodput %.2f kbps%s)\n", fif,
                        wall.count(), result.goodput_kbps,
                        matches ? "" : " — MISMATCH vs serial");
        }
        std::printf("\n");
        bench::emit_table(args, "scaling_frames_in_flight", table);
        std::printf("\n");
        print_pipeline_metrics(args, overlap_metrics);
    }

    std::printf("\nrun with --full for longer (more stable) runs, --quick for a sanity pass.\n");
    return 0;
}
