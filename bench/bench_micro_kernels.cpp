// Microbenchmarks (google-benchmark) for the hot kernels.
//
// The paper's 5 asks about computational cost: these measure the
// per-frame cost of each pipeline stage so a real-time port (the encoder
// must keep up with 120 Hz, the decoder with 30 FPS captures) can budget
// against them. The per-stage benches drive the actual core::Stage
// objects (pool-backed tokens through push()), so what is measured is
// what the stage-graph runtime executes; the pure image/coding kernels
// below them have no stage wrapper.

#include "bench_common.hpp"

#include "coding/reed_solomon.hpp"
#include "core/decoder.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/stages.hpp"
#include "channel/camera.hpp"
#include "channel/impairment.hpp"
#include "channel/link.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "util/csv.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "video/playback.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

namespace {

using namespace inframe;

// Acquire a pool-backed token the way Video_stage manufactures them.
core::Frame_token make_token(std::int64_t index, int width, int height, float value)
{
    core::Frame_token token;
    token.index = index;
    token.time_s = static_cast<double>(index) / 120.0;
    token.image = img::Frame_pool::instance().acquire(width, height, 1);
    for (auto& v : token.image.values()) v = value;
    return token;
}

void recycle_all(std::vector<core::Frame_token>& tokens)
{
    for (auto& t : tokens) img::Frame_pool::instance().recycle(std::move(t.image));
    tokens.clear();
}

void bm_encode_stage(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const int height = width * 9 / 16;
    auto config = core::paper_config(width, height);
    core::Encode_stage::Options options;
    options.payloads = core::make_random_payload_source(
        1, config.geometry.payload_bits_per_frame());
    core::Encode_stage encode(config, std::move(options));
    std::int64_t index = 0;
    for (auto _ : state) {
        auto out = encode.push(make_token(index++, width, height, 127.0f));
        benchmark::DoNotOptimize(out.data());
        recycle_all(out);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["fps_budget_120"] = benchmark::Counter(
        120.0, benchmark::Counter::kDefaults); // must beat this to run live
}
BENCHMARK(bm_encode_stage)->Arg(480)->Arg(960)->Arg(1920)->Unit(benchmark::kMillisecond);

void bm_decoder_block_metrics(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const int height = width * 9 / 16;
    auto config = core::paper_config(width, height);
    auto params = core::make_decoder_params(config, width * 2 / 3, height * 2 / 3);
    params.detector = state.range(1) ? core::Detector::matched : core::Detector::noise_level;
    core::Inframe_decoder decoder(params);
    util::Prng prng(2);
    img::Imagef capture(width * 2 / 3, height * 2 / 3, 1);
    for (auto& v : capture.values()) v = static_cast<float>(prng.next_double(0, 255));
    for (auto _ : state) {
        benchmark::DoNotOptimize(decoder.block_metrics(capture));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_decoder_block_metrics)
    ->Args({960, 0})
    ->Args({960, 1})
    ->Args({1920, 0})
    ->Args({1920, 1})
    ->Unit(benchmark::kMillisecond);

void bm_link_stage(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const int height = width * 9 / 16;
    channel::Display_params display;
    channel::Camera_params camera;
    camera.sensor_width = width * 2 / 3;
    camera.sensor_height = height * 2 / 3;
    core::Link_stage link(display, camera, width, height);
    std::int64_t index = 0;
    for (auto _ : state) {
        auto out = link.push(make_token(index++, width, height, 127.0f));
        benchmark::DoNotOptimize(out.data());
        recycle_all(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_link_stage)->Arg(960)->Arg(1920)->Unit(benchmark::kMillisecond);

// The whole graph — video synthesis, encode, link, decode — per display
// frame, through the serial Pipeline executor. One iteration advances one
// data frame (tau display frames) so the decoder really runs.
void bm_pipeline_display_frame(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const int height = width * 9 / 16;
    auto config = core::paper_config(width, height);
    core::Encode_stage::Options options;
    options.payloads = core::make_random_payload_source(
        7, config.geometry.payload_bits_per_frame());
    channel::Display_params display;
    channel::Camera_params camera;
    camera.sensor_width = width * 2 / 3;
    camera.sensor_height = height * 2 / 3;
    auto decoder_params =
        core::make_decoder_params(config, camera.sensor_width, camera.sensor_height);
    auto decoder = std::make_shared<core::Inframe_decoder>(decoder_params);

    core::Pipeline pipeline;
    pipeline.emplace_stage<core::Video_stage>(
        std::make_shared<video::Solid_video>(width, height, 127.0f),
        video::Playback_schedule{});
    pipeline.emplace_stage<core::Encode_stage>(config, std::move(options));
    pipeline.emplace_stage<core::Link_stage>(display, camera, width, height);
    pipeline.emplace_stage<core::Function_stage>(
        "decode", [decoder](core::Frame_token token) {
            benchmark::DoNotOptimize(decoder->push_capture(token.image, token.time_s));
            std::vector<core::Frame_token> out;
            out.push_back(std::move(token)); // runtime recycles sink frames
            return out;
        });
    for (auto _ : state) {
        pipeline.run(config.tau);
    }
    state.SetItemsProcessed(state.iterations() * config.tau);
    state.SetLabel("items = display frames");
}
BENCHMARK(bm_pipeline_display_frame)->Arg(480)->Arg(960)->Unit(benchmark::kMillisecond);

void bm_box_blur(benchmark::State& state)
{
    util::Prng prng(3);
    img::Imagef image(1280, 720, 1);
    for (auto& v : image.values()) v = static_cast<float>(prng.next_double(0, 255));
    for (auto _ : state) {
        benchmark::DoNotOptimize(img::box_blur(image, static_cast<int>(state.range(0))));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(image.value_count()) * 4);
}
BENCHMARK(bm_box_blur)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

// The camera optics on the paper rig: area resample, sub-pixel shift and
// lens blur of a 1920x1080 screen onto the 1280x720 sensor.
void bm_optics_to_sensor(benchmark::State& state)
{
    util::Prng prng(4);
    img::Imagef image(1920, 1080, 1);
    for (auto& v : image.values()) v = static_cast<float>(prng.next_double(0, 255));
    const channel::Camera_optics optics(channel::Camera_params{}, 1920, 1080);
    for (auto _ : state) {
        img::Imagef sensor = optics.to_sensor(image);
        benchmark::DoNotOptimize(sensor.values().data());
        benchmark::ClobberMemory();
        img::Frame_pool::instance().recycle(std::move(sensor));
    }
}
BENCHMARK(bm_optics_to_sensor)->Unit(benchmark::kMillisecond);

// The sensor electronics on one paper-rig capture (1280x720, default
// camera: shot and read noise, quantized) at 1 thread, once per SIMD level
// the host runs (the argument is the level). The pass runs in place on
// the same image with a fresh capture index each time.
void bm_sensor_noise(benchmark::State& state)
{
    const auto level = static_cast<simd::Level>(state.range(0));
    const simd::Level previous = simd::set_active_level(level);
    const util::Parallel_scope threads(1);
    util::Prng prng(6);
    img::Imagef image(1280, 720, 1);
    for (auto& v : image.values()) v = static_cast<float>(prng.next_double(0, 255));
    const channel::Camera_params camera;
    std::int64_t capture = 0;
    for (auto _ : state) {
        channel::apply_sensor_noise_rows(image, camera, capture++);
        benchmark::DoNotOptimize(image.values().data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(simd::to_string(level));
    simd::set_active_level(previous);
}
BENCHMARK(bm_sensor_noise)
    ->Apply([](benchmark::internal::Benchmark* b) {
        for (const simd::Level level : simd::available_levels()) b->Arg(static_cast<int>(level));
    })
    ->Unit(benchmark::kMillisecond);

// Camera shake on one paper-rig capture (1280x720) at 1 thread, with 1 or
// 3 channels (the argument), at carousel-overlap's sigma of 0.5 px. Each
// iteration shakes the previous result again with the next capture
// index; the replaced buffer goes back to the frame pool.
void bm_shake_impairment(benchmark::State& state)
{
    const util::Parallel_scope threads(1);
    util::Prng prng(7);
    img::Imagef image(1280, 720, static_cast<int>(state.range(0)));
    for (auto& v : image.values()) v = static_cast<float>(prng.next_double(0, 255));
    channel::Shake_impairment shake(1, 0.5);
    std::int64_t capture = 0;
    for (auto _ : state) {
        shake.apply(image, capture++);
        benchmark::DoNotOptimize(image.values().data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_shake_impairment)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

void bm_reed_solomon_decode(benchmark::State& state)
{
    const coding::Reed_solomon rs(140, 63);
    util::Prng prng(5);
    std::vector<std::uint8_t> data(63);
    prng.fill_bytes(data);
    auto codeword = rs.encode(data);
    // Stride 11 is coprime to n = 140, so the positions stay distinct
    // after the wrap (and inside the codeword — 11 * 29 + 3 = 322 would
    // write past the 140-byte buffer).
    for (int e = 0; e < static_cast<int>(state.range(0)); ++e) {
        codeword[static_cast<std::size_t>(11 * e + 3) % codeword.size()] ^= 0xa5;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(rs.decode(codeword));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_reed_solomon_decode)->Arg(0)->Arg(8)->Arg(30);

// The paper-size clip at the 4 render threads perfbench's sunrise-parallel
// workload uses.
void bm_sunrise_frame(benchmark::State& state)
{
    const util::Parallel_scope threads(4);
    const video::Sunrise_video video(1920, 1080);
    std::int64_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(video.frame(index++ % 900));
    }
}
BENCHMARK(bm_sunrise_frame)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- scalar-vs-SIMD speedup table -------------------------------------------
// Times each dispatched kernel at every level the host supports, against
// the honest scalar reference (kernels_scalar.cpp is built with the
// compiler's auto-vectorizer off). Buffers are sized to stay cache
// resident so this measures ALU throughput, not memory bandwidth.

double seconds_per_call(const std::function<void()>& call)
{
    using Clock = std::chrono::steady_clock;
    call();
    call(); // warm caches and the branch predictor
    constexpr int batch = 64;
    double best = 1.0e300;
    for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < batch; ++i) call();
        const double per_call =
            std::chrono::duration<double>(Clock::now() - t0).count() / batch;
        best = std::min(best, per_call);
    }
    return best;
}

void run_simd_speedup_table(const bench::Args& args)
{
    using simd::Kernels;
    using simd::Level;

    constexpr int n = 1 << 14; // 16k Gaussians: 128 KiB of doubles, L2-resident
    util::Prng prng(17);

    // box_blur_h: 8 interleaved-style streams over a 1-channel row.
    constexpr int blur_width = 1920;
    constexpr int blur_lanes = 8;
    std::vector<std::vector<float>> blur_src(blur_lanes, std::vector<float>(blur_width));
    std::vector<std::vector<float>> blur_dst(blur_lanes, std::vector<float>(blur_width));
    std::vector<const float*> blur_in(blur_lanes);
    std::vector<float*> blur_out(blur_lanes);
    for (int lane = 0; lane < blur_lanes; ++lane) {
        const auto s = static_cast<std::size_t>(lane);
        for (auto& v : blur_src[s]) v = static_cast<float>(prng.next_double(0, 255));
        blur_in[s] = blur_src[s].data();
        blur_out[s] = blur_dst[s].data();
    }

    // box_muller_f64: n / 2 pairs of uniforms on the kernel's domain.
    std::vector<double> u1(n / 2);
    std::vector<double> u2(n / 2);
    std::vector<double> gaussians(n);
    for (std::size_t i = 0; i < u1.size(); ++i) {
        u1[i] = prng.next_double(0x1.0p-53, 1.0);
        u2[i] = prng.next_double();
    }

    struct Kernel_case {
        const char* name;
        std::function<void(const Kernels&)> call;
    };
    const std::vector<Kernel_case> cases = {
        {"box_blur_h", [&](const Kernels& k) {
             k.box_blur_h(blur_in.data(), blur_out.data(), blur_lanes, blur_width, 1, 3);
         }},
        {"box_muller_f64", [&](const Kernels& k) {
             k.box_muller_f64(u1.data(), u2.data(), gaussians.data(), n / 2);
         }},
    };

    // Record the auto-detected level as a gauge so a --trace run's
    // telemetry_report shows what the numbers below were produced with.
    static const int simd_gauge =
        telemetry::intern_metric("simd.dispatch_level", telemetry::Metric_kind::gauge);
    telemetry::gauge_set(simd_gauge, static_cast<double>(simd::active_level()));

    bench::print_header(
        "micro: scalar-vs-SIMD kernel speedups",
        "runtime-dispatched kernels must be bit-identical at every level, so "
        "the only difference a level makes is the time below");
    std::printf("dispatch: best_supported=%s active=%s\n\n",
                simd::to_string(simd::best_supported()),
                simd::to_string(simd::active_level()));

    util::Table table({"kernel", "level", "ns_per_call", "speedup_vs_scalar"});
    const Kernels& scalar = simd::kernels_for(Level::scalar);
    for (const auto& kernel_case : cases) {
        const double scalar_s = seconds_per_call([&] { kernel_case.call(scalar); });
        for (const Level level : simd::available_levels()) {
            const Kernels& k = simd::kernels_for(level);
            const double level_s = level == Level::scalar
                                       ? scalar_s
                                       : seconds_per_call([&] { kernel_case.call(k); });
            table.add_row({kernel_case.name, simd::to_string(level),
                           util::format_fixed(level_s * 1.0e9, 1),
                           util::format_fixed(scalar_s / level_s, 2)});
        }
    }
    bench::emit_table(args, "micro_simd_speedup", table);
}

} // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared bench flags
// (--csv/--smoke/--quick/--full/--trace) are stripped before
// benchmark::Initialize sees the command line (google-benchmark aborts on
// flags it does not know), the google-benchmark suites run as before, and
// the scalar-vs-SIMD speedup table is appended to every run.
int main(int argc, char** argv)
{
    const inframe::bench::Args args = inframe::bench::parse_args(argc, argv);

    std::vector<char*> bench_argv;
    for (int i = 0; i < argc; ++i) {
        const bool flag_only = std::strcmp(argv[i], "--smoke") == 0
                               || std::strcmp(argv[i], "--quick") == 0
                               || std::strcmp(argv[i], "--full") == 0;
        const bool flag_value = std::strcmp(argv[i], "--csv") == 0
                                || std::strcmp(argv[i], "--trace") == 0;
        if (flag_only) continue;
        if (flag_value) {
            ++i; // skip the value too
            continue;
        }
        bench_argv.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    bench_argv.push_back(nullptr);

    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    run_simd_speedup_table(args);
    return 0;
}
