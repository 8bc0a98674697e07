// InFrame benchmark: runs one workload on the paper rig and prints its
// metrics.
//
//   inframe_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--commit <id>]
//
// Every run starts with an untimed warm-up repetition. --trace 0 then
// repeats the workload untraced until --seconds are used (at least once)
// and reports the end-to-end metrics; --trace 1 repeats it untraced for
// half of --seconds (at least twice), runs it once traced, replays the
// layers, and reports the per-layer metrics. Every repetition must
// reproduce the warm-up's decoded output bit for bit. The last line of
// stdout is one JSON object with the keys correct, attempted, failed and
// metrics. Exit status: 0 for a correct run, 1 when the correctness gate
// fails or the run throws, 2 for bad arguments.

#include "layers.hpp"
#include "probes.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace perfbench;

// Deployment budgets: the encoder must keep up with the 120 Hz display,
// the decoder with the 29.97 fps camera.
constexpr double encoder_budget_ms = 1000.0 / 120.0;
constexpr double decoder_budget_ms = 33.0;
constexpr double paper_gray_goodput_kbps = 12.8;

// Timings are measured over windows of this many display frames (0.1
// simulated s: three video frames, about three captures). Shorter windows catch
// the brief quiet spells of a shared host; 24-frame windows spread twice
// as much between runs on gray-serial.
constexpr std::size_t window_frames = 12;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string commit = "unknown";
};

Args parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--commit") {
            args.commit = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (args.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return args;
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

// Correctness gate: every repetition, the traced one included, must pass
// its own output check and reproduce the warm-up's CRC32 of the decoded
// output, because output is deterministic and telemetry only observes.
class Gate {
public:
    void check(const Rep_result& rep)
    {
        if (attempted_++ == 0) crc_ = rep.output_crc;
        const char* problem = nullptr;
        if (!rep.output_ok) {
            problem = rep.output_problem.c_str();
        } else if (rep.output_crc != crc_) {
            problem = "decoded output differs from the warm-up's";
        }
        if (problem == nullptr) return;
        ++failed_;
        std::printf("correctness: repetition %d failed: %s\n", attempted_, problem);
    }

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }
    std::uint32_t crc() const { return crc_; }

private:
    std::uint32_t crc_ = 0;
    int attempted_ = 0;
    int failed_ = 0;
};

void print_budget(const char* layer, const char* per, const std::vector<double>& samples,
                  double budget_ms)
{
    const double p50 = median(samples);
    const Tail tail = tail_of(samples);
    std::printf("%s: p50 %.3f ms, tail p%.1f %.3f ms %s (%zu samples); budget %.2f ms, "
                "headroom %.1f%% at p50, %.1f%% at the tail\n",
                layer, p50, tail.percentile, tail.value, per, tail.samples, budget_ms,
                100.0 * (budget_ms - p50) / budget_ms, 100.0 * (budget_ms - tail.value) / budget_ms);
}

// Simulator speed (sim s per wall s), CPU cost (process CPU s per sim s)
// and mean encode and decode push times of each window of a set of
// repetitions, from the head stage's stamps. Each repetition's first
// window is left out: on an overlapped pipeline the head stage runs ahead
// while the queues fill. Captures are assigned to windows in proportion to
// their index.
//
// Contention on a shared host only ever slows a window down, so every
// timing is read from its best window: the figure the code reaches
// whenever the host lets it. Medians over all windows moved by a quarter
// between runs. Push times are window means, not medians of single
// pushes: pushes fall into clusters by their place in the video frame
// period, and a median sits on the gap between two of them.
class Windows {
public:
    void add(const Rep_result& rep)
    {
        const std::vector<double>& wall = rep.frame_start_s;
        const std::vector<double>& cpu_used = rep.frame_start_cpu_s;
        const std::size_t frames = wall.size() - 1;
        const double window_sim_s =
            static_cast<double>(window_frames) * rep.sim_s / static_cast<double>(frames);
        // Mean of the samples of display frames [from, to), in proportion
        // to the index; NaN when the window holds none.
        const auto mean_of = [frames](const std::vector<double>& samples, std::size_t from,
                                      std::size_t to) {
            const auto at = [&](std::size_t frame) {
                return samples.begin() + static_cast<std::ptrdiff_t>(frame * samples.size() / frames);
            };
            return at(to) == at(from) ? std::nan("") : mean(std::vector<double>(at(from), at(to)));
        };
        for (std::size_t i = window_frames; i + window_frames <= frames; i += window_frames) {
            const std::size_t end = i + window_frames;
            speed_.push_back(window_sim_s / (wall[end] - wall[i]));
            cpu_.push_back((cpu_used[end] - cpu_used[i]) / window_sim_s);
            encode_ms_.push_back(mean_of(rep.encode_ms, i, end));
            decode_ms_.push_back(mean_of(rep.decode_ms, i, end));
        }
    }

    std::size_t size() const { return speed_.size(); }
    double best_speed() const { return best(speed_, true); }
    double best_cpu() const { return best(cpu_, false); }
    double best_encode_ms() const { return best(encode_ms_, false); }
    double best_decode_ms() const { return best(decode_ms_, false); }

private:
    static double best(const std::vector<double>& values, bool highest)
    {
        double found = std::nan("");
        for (const double value : values) {
            if (std::isnan(value)) continue;
            if (std::isnan(found) || (highest ? value > found : value < found)) found = value;
        }
        return found;
    }

    std::vector<double> speed_;
    std::vector<double> cpu_;
    std::vector<double> encode_ms_;
    std::vector<double> decode_ms_;
};

// Runs timed repetitions while the next one still fits in `seconds`
// counted from `start`, and at least `at_least` of them.
std::vector<Rep_result> repeat(const Workload& workload, const Inputs& inputs, Clock::time_point start,
                               double seconds, std::size_t at_least, Gate& gate)
{
    std::vector<Rep_result> reps;
    while (reps.size() < at_least
           || seconds_since(start) + reps.back().setup_s + reps.back().wall_s <= seconds) {
        reps.push_back(run_rep(workload, inputs, Rep_kind::timed));
        gate.check(reps.back());
    }
    return reps;
}

std::vector<Metric> end_to_end(const Workload& workload, const Inputs& inputs, const Rep_result& warm_up,
                               Clock::time_point start, double seconds, Gate& gate)
{
    const std::vector<Rep_result> reps = repeat(workload, inputs, start, seconds, 1, gate);
    Windows windows;
    std::vector<double> rss, encode_ms, decode_ms;
    for (const Rep_result& rep : reps) {
        windows.add(rep);
        rss.push_back(rep.peak_rss_mb);
        encode_ms.insert(encode_ms.end(), rep.encode_ms.begin(), rep.encode_ms.end());
        decode_ms.insert(decode_ms.end(), rep.decode_ms.begin(), rep.decode_ms.end());
    }
    std::printf("repetitions: warm-up + %zu timed in %.2f s, %zu windows of %zu display frames\n",
                reps.size(), seconds_since(start), windows.size(), window_frames);
    print_budget("encoder", "per display frame", encode_ms, encoder_budget_ms);
    print_budget("decoder", "per capture", decode_ms, decoder_budget_ms);
    const Quality& q = warm_up.quality;
    std::printf("goodput: %.3f kbps", q.goodput_kbps);
    if (workload.name == "gray-serial") {
        std::printf(" (paper, pure light gray at tau 10: %.1f kbps)", paper_gray_goodput_kbps);
    }
    std::printf("\n");

    return {
        {"sim_speed", windows.best_speed(), "sim_s/s"},
        {"cpu_per_sim_s", windows.best_cpu(), "cpu_s/sim_s"},
        {"encode_ms", windows.best_encode_ms(), "ms"},
        {"decode_ms", windows.best_decode_ms(), "ms"},
        {"goodput_kbps", q.goodput_kbps, "kbps"},
        {"available_gob_ratio", q.available_gob_ratio, "ratio"},
        {"payload_ber", q.payload_ber, "ratio"},
        {"ops_failed_ratio", q.ops_failed_ratio, "ratio"},
        {"setup_s", min_setup_s(workload, inputs), "s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
}

std::vector<Metric> per_layer(const Workload& workload, const Inputs& inputs, const Rep_result& warm_up,
                              Clock::time_point start, double seconds, Gate& gate)
{
    // Half the measuring time, and at least two repetitions, go untraced,
    // for the tracing overhead and the latency tails; then one traced
    // repetition.
    const std::vector<Rep_result> untraced = repeat(workload, inputs, start, seconds / 2, 2, gate);
    const Rep_result traced = run_rep(workload, inputs, Rep_kind::traced);
    gate.check(traced);

    std::vector<double> untraced_speed, untraced_wall_s, encode_ms, decode_ms;
    for (const Rep_result& rep : untraced) {
        Windows windows;
        windows.add(rep);
        untraced_speed.push_back(windows.best_speed());
        untraced_wall_s.push_back(rep.wall_s);
        encode_ms.insert(encode_ms.end(), rep.encode_ms.begin(), rep.encode_ms.end());
        decode_ms.insert(decode_ms.end(), rep.decode_ms.begin(), rep.decode_ms.end());
    }
    Windows traced_windows;
    traced_windows.add(traced);
    print_budget("encoder", "per display frame", encode_ms, encoder_budget_ms);
    print_budget("decoder", "per capture", decode_ms, decoder_budget_ms);
    const std::map<std::string, Span_time> spans = fold_trace(*traced.trace);
    const Layer_replay replay = replay_layers(workload, inputs, warm_up.frames);

    const auto span = [&spans](const std::string& name) {
        const auto it = spans.find(name);
        return it == spans.end() ? Span_time{} : it->second;
    };
    std::map<std::string, double> counters;
    for (const telemetry::Counter_value& counter : traced.trace->snapshot().counters) {
        counters[counter.name] = static_cast<double>(counter.value);
    }

    const auto display_frames = static_cast<double>(workload.display_frames);
    const Span_time capture = span("link.capture");
    const Span_time finalize = span("decode.finalize");
    std::vector<Metric> metrics = {
        {"video.frame_ms", replay.video_frame_ms, "ms"},
        {"video.copy_ms", replay.video_copy_ms, "ms"},
        {"link.push_ms", mean(traced.link_ms), "ms"},
        {"link.emit_ms", replay.emit_ms, "ms"},
        {"link.optics_ms", replay.optics_ms, "ms"},
        // The link.capture span covers rolling-shutter integration and
        // sensor noise; the replayed noise cost is taken out.
        {"link.integrate_ms",
         (1e3 * capture.total_s - static_cast<double>(capture.count) * replay.noise_ms) / display_frames,
         "ms"},
        {"link.noise_ms", replay.noise_ms, "ms"},
        {"link.impair_ms", replay.impair_ms, "ms"},
        {"link.captures_delivered", counters["link.captures_delivered"], "count"},
        {"link.captures_dropped", counters["link.captures_dropped"], "count"},
        {"encoder.push_ms", mean(traced.encode_ms), "ms"},
        // The latency tails move by a third between runs on a shared host,
        // so they are layer metrics here, taken from the untraced runs.
        {"encode_ms_tail", tail_of(encode_ms).value, "ms"},
        {"decode_ms_tail", tail_of(decode_ms).value, "ms"},
        {"decoder.metrics_ms", replay.metrics_ms, "ms"},
        {"decoder.finalize_ms",
         finalize.count > 0 ? 1e3 * finalize.total_s / static_cast<double>(finalize.count) : 0.0, "ms"},
        {"decoder.captures_used_ratio", warm_up.quality.captures_used_ratio, "ratio"},
        {"session.build_ms", replay.build_ms, "ms"},
        {"session.parse_ms", replay.parse_ms, "ms"},
        {"session.frames_rejected", static_cast<double>(traced.frames_rejected), "count"},
        {"session.message_complete_s", traced.message_complete_s, "s"},
        {"pool.hits", static_cast<double>(traced.pipeline.pool_hits), "count"},
        {"pool.misses", static_cast<double>(traced.pipeline.pool_misses), "count"},
    };

    // The session path's send and receive stages report as encode and
    // decode, so every workload has the same metric names.
    const char* const roles[] = {"video", "encode", "link", "decode"};
    for (std::size_t s = 0; s < traced.pipeline.stages.size(); ++s) {
        const core::Stage_metrics& stage = traced.pipeline.stages[s];
        const std::string role = roles[s];
        metrics.push_back({role + ".busy_s", stage.wall_s, "s"});
        metrics.push_back({role + ".busy_share", stage.wall_s / traced.pipeline.wall_s, "ratio"});
        metrics.push_back({role + ".input_waits", static_cast<double>(stage.input_waits), "count"});
        metrics.push_back({role + ".output_waits", static_cast<double>(stage.output_waits), "count"});
    }

    // Self time per layer, seconds per simulated second, covering every
    // span the library records. Impairment stages record spans under
    // their own names.
    const std::vector<std::pair<std::string, std::vector<std::string>>> layers = {
        {"video", {"video"}},
        {"encode", {"encode", "send"}},
        {"encode.embed", {"encode.embed"}},
        {"link", {"link"}},
        {"link.capture", {"link.capture"}},
        {"impairments", {"timing", "exposure-drift", "shake", "tear", "occlusion"}},
        {"decode", {"decode", "receive"}},
        {"decode.capture", {"decode.capture"}},
        {"sync.estimate", {"sync.estimate"}},
        {"decode.finalize", {"decode.finalize"}},
        {"pool.batch", {"pool.batch"}},
    };
    for (const auto& [layer, names] : layers) {
        double self_s = 0.0;
        for (const std::string& name : names) self_s += span(name).self_s;
        metrics.push_back({"self." + layer, self_s / traced.sim_s, "s/sim_s"});
    }

    // Stage spans hold every other span on their threads, so their total
    // is the sum of the self times above minus pool work on worker threads.
    double stage_total_s = 0.0;
    for (const char* stage : {"video", "encode", "send", "link", "decode", "receive"}) {
        stage_total_s += span(stage).total_s;
    }
    // The overhead compares the traced repetition's best window with the
    // median untraced repetition's best window. On a serial pipeline the
    // stage spans cover the traced wall time up to the executor's own loop,
    // which no span covers. They are held against the traced wall, not an
    // untraced one: on a shared host whole-repetition wall times differ by
    // more between repetitions than tracing costs. Overlapped stages run
    // concurrently, so their sum exceeds the wall time.
    const double speed = median(untraced_speed);
    const double traced_speed = traced_windows.best_speed();
    const double overhead = (speed - traced_speed) / speed;
    const double coverage = stage_total_s / traced.wall_s;
    const char* verdict = "stages overlap, not comparable";
    if (workload.frames_in_flight == 1) {
        verdict = coverage >= 0.99 ? "the spans cover the wall" : "the spans do NOT cover the wall";
    }
    std::printf("tracing: sim_speed %.4f untraced (%zu repetitions), %.4f traced, overhead %.2f%%\n",
                speed, untraced.size(), traced_speed, 100.0 * overhead);
    std::printf("stage self times: %.3f s, %.1f%% of the traced %.3f s wall: %s; untraced "
                "repetitions took %.3f s (median)\n",
                stage_total_s, 100.0 * coverage, traced.wall_s, verdict, median(untraced_wall_s));
    metrics.push_back({"trace.overhead", overhead, "ratio"});
    metrics.push_back({"trace.stage_total_s", stage_total_s, "s"});
    metrics.push_back({"trace.untraced_wall_s", median(untraced_wall_s), "s"});
    metrics.push_back({"trace.span_coverage", coverage, "ratio"});
    return metrics;
}

void print_result(const Gate& gate, const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                gate.failed() == 0 ? "true" : "false", gate.attempted(), gate.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv)
{
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: inframe_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--commit <id>]\n",
                     e.what());
        return 2;
    }
    const std::optional<Workload> workload = find_workload(args.workload);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'; known:", args.workload.c_str());
        for (const Workload& known : workloads()) std::fprintf(stderr, " %s", known.name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    try {
        const Inputs inputs = make_inputs(*workload, args.seed);
        std::printf("environment: {\"commit\": \"%s\", \"nproc\": %d, \"simd\": \"%s\", "
                    "\"build_type\": \"%s\", \"workload\": \"%s\", \"threads\": %d, "
                    "\"frames_in_flight\": %d, \"seed\": %llu, \"tau\": %d, "
                    "\"display_frames_per_repetition\": %lld, \"trace\": %d}\n",
                    args.commit.c_str(), nproc(),
                    inframe::simd::to_string(inframe::simd::active_level()),
                    INFRAME_PERFBENCH_BUILD_TYPE, workload->name.c_str(), workload->threads,
                    workload->frames_in_flight, static_cast<unsigned long long>(args.seed),
                    workload->tau, static_cast<long long>(workload->display_frames),
                    args.trace ? 1 : 0);

        // The measuring time starts with an untimed warm-up repetition: it
        // faults in the frame pool and caches, gives the Fig. 7 accounting,
        // and is the first output every later repetition must reproduce.
        Gate gate;
        const Clock::time_point start = Clock::now();
        const Rep_result warm_up = run_rep(*workload, inputs, Rep_kind::warm_up);
        gate.check(warm_up);
        const std::vector<Metric> metrics =
            args.trace ? per_layer(*workload, inputs, warm_up, start, args.seconds, gate)
                       : end_to_end(*workload, inputs, warm_up, start, args.seconds, gate);
        std::printf("output crc32: %08x over %d repetitions, %d failed\n", gate.crc(),
                    gate.attempted(), gate.failed());
        for (const Metric& metric : metrics) {
            if (!std::isfinite(metric.value)) {
                throw std::runtime_error("metric " + metric.name + " is not finite");
            }
        }
        print_result(gate, metrics);
        return gate.failed() == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
