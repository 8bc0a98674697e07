// Thread-count invariance of the whole pipeline.
//
// The parallel execution layer promises bit-identical output for every
// thread count (DESIGN.md, "Threading model & determinism"): chunk
// boundaries depend only on range and grain, per-row sensor noise is seeded
// per row, and reductions merge fixed slices in order. These tests pin that
// contract end to end: encoder display frames, channel captures, and the
// decoded experiment results must match threads=1 exactly — not within a
// tolerance — at 2, 4 and 7 threads.
#include "core/link_runner.hpp"

#include "channel/camera.hpp"
#include "channel/link.hpp"
#include "imgproc/filter.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/warp.hpp"
#include "simd/simd.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace inframe;
using namespace inframe::core;
using inframe::util::Parallel_scope;

constexpr int thread_counts[] = {2, 4, 7};

bool bit_identical(const img::Imagef& a, const img::Imagef& b)
{
    if (!a.same_shape(b)) return false;
    const auto va = a.values();
    const auto vb = b.values();
    for (std::size_t i = 0; i < va.size(); ++i) {
        if (va[i] != vb[i]) return false;
    }
    return true;
}

Link_experiment_config noisy_rig(Detector detector)
{
    Link_experiment_config config;
    config.video = video::make_sunrise_video(480, 270, 7);
    config.inframe = paper_config(480, 270);
    config.inframe.tau = 8;
    config.camera.sensor_width = 480;
    config.camera.sensor_height = 270;
    config.camera.fps = 30.0;
    config.camera.exposure_s = 1.0 / 120.0;
    // Noise on: the per-row PRNG streams are exactly what could go
    // scheduling-dependent, so the determinism test must exercise them.
    config.camera.shot_noise_scale = 0.2;
    config.camera.read_noise_sigma = 1.5;
    config.camera.quantize = true;
    config.detector = detector;
    config.duration_s = 0.4;
    return config;
}

std::vector<img::Imagef> encode_frames(int threads, int count)
{
    const Parallel_scope scope(threads);
    Inframe_config config = paper_config(480, 270);
    config.tau = 8;
    Inframe_encoder encoder(config);
    util::Prng data_prng(7);
    for (int i = 0; i < count / config.tau + 2; ++i) {
        encoder.queue_payload(data_prng.next_bits(
            static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
    }
    const auto video = video::make_sunrise_video(480, 270, 7);
    std::vector<img::Imagef> frames;
    for (int j = 0; j < count; ++j) {
        frames.push_back(encoder.next_display_frame(video->frame(j / 4)));
    }
    return frames;
}

TEST(ParallelDeterminism, EncoderDisplayFramesAreBitIdentical)
{
    const auto serial = encode_frames(1, 16);
    for (const int threads : thread_counts) {
        const auto parallel = encode_frames(threads, 16);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t j = 0; j < serial.size(); ++j) {
            EXPECT_TRUE(bit_identical(parallel[j], serial[j]))
                << "threads=" << threads << " frame " << j;
        }
    }
}

TEST(ParallelDeterminism, ChannelCapturesAreBitIdentical)
{
    const auto config = noisy_rig(Detector::noise_level);
    auto capture_with = [&](int threads) {
        const Parallel_scope scope(threads);
        channel::Screen_camera_link link(config.display, config.camera, 480, 270);
        const auto video = video::make_sunrise_video(480, 270, 7);
        std::vector<img::Imagef> captures;
        for (int j = 0; j < 24; ++j) {
            for (auto& capture : link.push_display_frame(video->frame(j / 4))) {
                captures.push_back(std::move(capture.image));
            }
        }
        return captures;
    };
    const auto serial = capture_with(1);
    ASSERT_FALSE(serial.empty());
    for (const int threads : thread_counts) {
        const auto parallel = capture_with(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t k = 0; k < serial.size(); ++k) {
            EXPECT_TRUE(bit_identical(parallel[k], serial[k]))
                << "threads=" << threads << " capture " << k;
        }
    }
}

TEST(ParallelDeterminism, ImgprocKernelsAreBitIdentical)
{
    // A capture-sized frame with smooth structure plus per-pixel variation.
    img::Imagef src(480, 270, 1);
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            src(x, y) = static_cast<float>((x * 13 + y * 31) % 251)
                        + 0.25f * static_cast<float>((x * 7919 + y * 104729) % 97);
        }
    }
    const img::Homography h = img::Homography::rect_to_quad(
        480.0, 270.0, {4.0, 6.0, 470.0, 2.0, 476.0, 260.0, 8.0, 266.0});
    channel::Camera_params camera;
    camera.sensor_width = 213;
    camera.sensor_height = 131;
    camera.optical_blur_sigma = 1.7;
    const channel::Camera_optics optics(camera, 480, 270);
    camera.sensor_width = 480;
    camera.sensor_height = 270;
    camera.sensor_to_screen = h;
    const channel::Camera_optics perspective(camera, 480, 270);
    auto run = [&](int threads) {
        const Parallel_scope scope(threads);
        std::vector<img::Imagef> out;
        out.push_back(img::box_blur(src, 3));
        out.push_back(optics.to_sensor(src));
        out.push_back(perspective.to_sensor(src));
        out.push_back(img::warp_perspective(src, h, 480, 270));
        out.push_back(img::abs_diff(src, img::box_blur(src, 2)));
        return out;
    };
    const auto serial = run(1);
    for (const int threads : thread_counts) {
        const auto parallel = run(threads);
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(bit_identical(parallel[i], serial[i]))
                << "threads=" << threads << " kernel " << i;
        }
    }
}

void expect_identical_results(const Link_experiment_result& a, const Link_experiment_result& b,
                              int threads)
{
    EXPECT_EQ(a.data_frames, b.data_frames) << "threads=" << threads;
    EXPECT_EQ(a.captures, b.captures) << "threads=" << threads;
    // Bitwise double equality: the decoded bits and every metric derived
    // from them must match exactly, not approximately.
    EXPECT_EQ(a.available_gob_ratio, b.available_gob_ratio) << "threads=" << threads;
    EXPECT_EQ(a.gob_error_rate, b.gob_error_rate) << "threads=" << threads;
    EXPECT_EQ(a.goodput_kbps, b.goodput_kbps) << "threads=" << threads;
    EXPECT_EQ(a.block_error_rate, b.block_error_rate) << "threads=" << threads;
    EXPECT_EQ(a.unknown_block_ratio, b.unknown_block_ratio) << "threads=" << threads;
    EXPECT_EQ(a.trusted_bit_error_rate, b.trusted_bit_error_rate) << "threads=" << threads;
}

TEST(ParallelDeterminism, NoiseLevelDecodeIsThreadCountInvariant)
{
    auto config = noisy_rig(Detector::noise_level);
    config.inframe.threads = 1;
    const auto serial = run_link_experiment(config);
    EXPECT_GT(serial.data_frames, 0);
    for (const int threads : thread_counts) {
        config.inframe.threads = threads;
        expect_identical_results(run_link_experiment(config), serial, threads);
    }
}

TEST(ParallelDeterminism, MatchedDecodeIsThreadCountInvariant)
{
    auto config = noisy_rig(Detector::matched);
    config.inframe.threads = 1;
    const auto serial = run_link_experiment(config);
    EXPECT_GT(serial.data_frames, 0);
    for (const int threads : thread_counts) {
        config.inframe.threads = threads;
        expect_identical_results(run_link_experiment(config), serial, threads);
    }
}

TEST(ParallelDeterminism, ThreadsZeroMeansHardwareConcurrency)
{
    auto config = noisy_rig(Detector::noise_level);
    config.inframe.threads = 1;
    const auto serial = run_link_experiment(config);
    config.inframe.threads = 0; // hardware concurrency — still identical
    expect_identical_results(run_link_experiment(config), serial, 0);
}

// RAII pin of the SIMD dispatch level, restoring the previous level even
// if an assertion throws mid-test.
class Scoped_simd_level {
public:
    explicit Scoped_simd_level(simd::Level level) : previous_(simd::set_active_level(level)) {}
    ~Scoped_simd_level() { simd::set_active_level(previous_); }
    Scoped_simd_level(const Scoped_simd_level&) = delete;
    Scoped_simd_level& operator=(const Scoped_simd_level&) = delete;

private:
    simd::Level previous_;
};

// The SIMD layer's end-to-end contract (src/simd/simd.hpp): decoded
// payload bits — and every metric derived from them — are bit-identical
// at every dispatch level, in every threads x frames_in_flight
// configuration. The scalar reference run is the anchor; each available
// vector level must reproduce it exactly, so INFRAME_SIMD only ever
// changes speed, never results.
TEST(ParallelDeterminism, DecodeIsSimdLevelInvariant)
{
    auto config = noisy_rig(Detector::noise_level);

    config.inframe.threads = 1;
    config.frames_in_flight = 1;
    Link_experiment_result scalar_result;
    {
        const Scoped_simd_level pin(simd::Level::scalar);
        scalar_result = run_link_experiment(config);
    }
    EXPECT_GT(scalar_result.data_frames, 0);

    for (const simd::Level level : simd::available_levels()) {
        const Scoped_simd_level pin(level);
        for (const int threads : {1, 4}) {
            for (const int frames_in_flight : {1, 4}) {
                config.inframe.threads = threads;
                config.frames_in_flight = frames_in_flight;
                const auto result = run_link_experiment(config);
                SCOPED_TRACE(std::string("level=") + simd::to_string(level)
                             + " threads=" + std::to_string(threads)
                             + " frames_in_flight=" + std::to_string(frames_in_flight));
                expect_identical_results(result, scalar_result, threads);
                EXPECT_EQ(result.payload_bit_error_rate,
                          scalar_result.payload_bit_error_rate);
            }
        }
    }
}

} // namespace
