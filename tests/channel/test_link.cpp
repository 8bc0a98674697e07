#include "channel/link.hpp"

#include "imgproc/image_ops.hpp"
#include "imgproc/pool.hpp"
#include "imgproc/warp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace inframe::channel;
using inframe::img::Imagef;

constexpr int screen_w = 48;
constexpr int screen_h = 27;

Display_params ideal_display()
{
    Display_params d;
    d.response_persistence = 0.0;
    d.black_level = 0.0;
    return d;
}

Camera_params ideal_camera()
{
    Camera_params c;
    c.fps = 30.0; // locked to the display for deterministic timing tests
    c.sensor_width = 24;
    c.sensor_height = 12;
    c.exposure_s = 1.0 / 120.0;
    c.readout_s = 0.0;
    c.optical_blur_sigma = 0.0;
    c.offset_x_px = 0.0;
    c.offset_y_px = 0.0;
    c.shot_noise_scale = 0.0;
    c.read_noise_sigma = 0.0;
    c.quantize = false;
    return c;
}

std::vector<Imagef> solid_frames(int count, float level)
{
    return std::vector<Imagef>(static_cast<std::size_t>(count),
                               Imagef(screen_w, screen_h, 1, level));
}

TEST(Link, CaptureRateIsCameraFps)
{
    // 120 display frames = 1 second -> 30 captures (the 30th completes
    // exactly at t = 29/30 + exposure < 1 s).
    const auto captures = run_link(ideal_display(), ideal_camera(), solid_frames(120, 100.0f));
    EXPECT_EQ(captures.size(), 30u);
    for (std::size_t k = 0; k < captures.size(); ++k) {
        EXPECT_EQ(captures[k].index, static_cast<std::int64_t>(k));
        EXPECT_NEAR(captures[k].start_time, static_cast<double>(k) / 30.0, 1e-12);
    }
}

TEST(Link, AlignedShortExposureSamplesOneDisplayFrame)
{
    // Phase-aligned 1/120 s exposure: capture k sees exactly display frame
    // 4k. Mark each display frame with its index as a level.
    std::vector<Imagef> frames;
    for (int i = 0; i < 48; ++i) frames.emplace_back(screen_w, screen_h, 1, static_cast<float>(i));
    const auto captures = run_link(ideal_display(), ideal_camera(), frames);
    ASSERT_GE(captures.size(), 3u);
    for (std::size_t k = 0; k < captures.size(); ++k) {
        const double expected = static_cast<double>(4 * k);
        EXPECT_NEAR(inframe::img::mean(captures[k].image), expected, 1e-3);
    }
}

TEST(Link, TwoFrameExposureAveragesComplementaryPair)
{
    // Exposure spanning a +D/-D pair cancels the data: the integrated
    // level is the plain video level. This is why InFrame needs a short
    // exposure (3.2, rolling shutter discussion).
    auto camera = ideal_camera();
    camera.exposure_s = 2.0 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        const float level = 127.0f + (i % 2 == 0 ? 20.0f : -20.0f);
        frames.emplace_back(screen_w, screen_h, 1, level);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 2u);
    for (const auto& capture : captures) {
        EXPECT_NEAR(inframe::img::mean(capture.image), 127.0, 1e-3);
    }
}

TEST(Link, ShortExposureKeepsComplementaryAmplitude)
{
    auto camera = ideal_camera();
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        const float level = 127.0f + (i % 2 == 0 ? 20.0f : -20.0f);
        frames.emplace_back(screen_w, screen_h, 1, level);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(inframe::img::mean(captures[0].image), 147.0, 1e-3);
}

TEST(Link, RollingShutterMixesFramesAcrossRows)
{
    // Display alternates black/white every refresh; readout skew of one
    // refresh period makes top rows see a different frame mix than bottom
    // rows -> strong vertical gradient/banding inside a single capture.
    auto camera = ideal_camera();
    camera.sensor_height = 24;
    camera.readout_s = 1.0 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        frames.emplace_back(screen_w, screen_h, 1, i % 2 == 0 ? 0.0f : 200.0f);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    const auto& image = captures[0].image;
    const double top = inframe::img::mean_region(image, 0, 0, image.width(), 2);
    const double bottom =
        inframe::img::mean_region(image, 0, image.height() - 2, image.width(), 2);
    EXPECT_GT(std::abs(top - bottom), 100.0);
}

TEST(Link, GlobalShutterHasNoBanding)
{
    auto camera = ideal_camera();
    camera.sensor_height = 24;
    camera.readout_s = 0.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        frames.emplace_back(screen_w, screen_h, 1, i % 2 == 0 ? 0.0f : 200.0f);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    const auto& image = captures[0].image;
    const double top = inframe::img::mean_region(image, 0, 0, image.width(), 2);
    const double bottom =
        inframe::img::mean_region(image, 0, image.height() - 2, image.width(), 2);
    EXPECT_NEAR(top, bottom, 1e-3);
}

TEST(Link, PhaseOffsetShiftsCaptureTimes)
{
    auto camera = ideal_camera();
    camera.phase_offset_s = 0.01;
    const auto captures = run_link(ideal_display(), camera, solid_frames(120, 50.0f));
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(captures[0].start_time, 0.01, 1e-12);
}

TEST(Link, MisalignedPhaseBlendsAdjacentFrames)
{
    // Exposure starting halfway into a display frame sees half of each
    // neighbour.
    auto camera = ideal_camera();
    camera.phase_offset_s = 0.5 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 12; ++i) frames.emplace_back(screen_w, screen_h, 1, static_cast<float>(10 * i));
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(inframe::img::mean(captures[0].image), 5.0, 1e-3);
}

TEST(Link, NoiseIsDeterministicPerSeed)
{
    auto camera = ideal_camera();
    camera.read_noise_sigma = 2.0;
    camera.seed = 555;
    const auto a = run_link(ideal_display(), camera, solid_frames(24, 100.0f));
    const auto b = run_link(ideal_display(), camera, solid_frames(24, 100.0f));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        const auto va = a[k].image.values();
        const auto vb = b[k].image.values();
        for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
    }
}

TEST(Link, StreamingMatchesBatch)
{
    auto camera = ideal_camera();
    Screen_camera_link link(ideal_display(), camera, screen_w, screen_h);
    std::vector<Capture> streamed;
    const auto frames = solid_frames(60, 80.0f);
    for (const auto& frame : frames) {
        for (auto& c : link.push_display_frame(frame)) streamed.push_back(std::move(c));
    }
    const auto batch = run_link(ideal_display(), camera, frames);
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
        EXPECT_EQ(streamed[k].index, batch[k].index);
        EXPECT_DOUBLE_EQ(inframe::img::mean(streamed[k].image),
                         inframe::img::mean(batch[k].image));
    }
}

// Textured frames whose content changes every refresh, so a wrong frame,
// row or weight shows up in the capture.
std::vector<Imagef> random_frames(int count, int channels, std::uint64_t seed)
{
    inframe::util::Prng prng(seed);
    std::vector<Imagef> frames;
    for (int i = 0; i < count; ++i) {
        Imagef frame(screen_w, screen_h, channels);
        for (float& v : frame.values()) v = static_cast<float>(prng.next_double(0.0, 255.0));
        frames.push_back(std::move(frame));
    }
    return frames;
}

// The eager path the link replaced: project every emitted frame in full,
// then integrate each row's window over all of them in display order and
// apply the sensor electronics. Same timing arithmetic as the link.
std::vector<Imagef> eager_reference(const Display_params& display, const Camera_params& camera,
                                    const std::vector<Imagef>& frames, std::size_t capture_count)
{
    Display_model model(display);
    const Camera_optics optics(camera, screen_w, screen_h);
    std::vector<Imagef> sensor;
    for (const auto& frame : frames) sensor.push_back(optics.to_sensor(model.emit(frame)));
    const double period = model.refresh_period();
    const int rows = camera.sensor_height;
    std::vector<Imagef> captures;
    for (std::size_t k = 0; k < capture_count; ++k) {
        const double capture_start =
            camera.phase_offset_s + static_cast<double>(k) / camera.fps;
        Imagef integrated(camera.sensor_width, rows, frames[0].channels(), 0.0f);
        for (int r = 0; r < rows; ++r) {
            const double row_start =
                capture_start
                + (rows > 1 ? camera.readout_s * static_cast<double>(r) / (rows - 1) : 0.0);
            const double row_end = row_start + camera.exposure_s;
            auto out = integrated.row(r);
            for (std::size_t i = 0; i < sensor.size(); ++i) {
                const double start = static_cast<double>(i) * period;
                const double overlap =
                    std::min(start + period, row_end) - std::max(start, row_start);
                if (overlap <= 0.0) continue;
                const auto weight = static_cast<float>(overlap / camera.exposure_s);
                const auto in = sensor[i].row(r);
                for (std::size_t x = 0; x < out.size(); ++x) out[x] += weight * in[x];
            }
        }
        apply_sensor_noise_rows(integrated, camera, static_cast<std::int64_t>(k));
        captures.push_back(std::move(integrated));
    }
    return captures;
}

TEST(Link, DemandProjectionMatchesEagerReference)
{
    // Default panel (persistence and black level on) and a noisy,
    // quantizing camera at NTSC 29.97 fps, so windows drift across display
    // frame boundaries; 1/100 s exposure always straddles one.
    const Display_params display;
    const auto sensor_to_screen = inframe::img::Homography::rect_to_quad(
        24, 16, {2.0, 1.0, 45.0, 2.5, 46.0, 26.0, 0.5, 25.0});
    for (const int channels : {1, 3}) {
        const auto frames = random_frames(40, channels, 90 + channels);
        for (const bool perspective : {false, true}) {
            for (const double readout : {0.0, 0.006}) {
                for (const double exposure : {1.0 / 480.0, 1.0 / 100.0}) {
                    Camera_params camera;
                    camera.sensor_width = 24;
                    camera.sensor_height = 16;
                    camera.readout_s = readout;
                    camera.exposure_s = exposure;
                    camera.phase_offset_s = 0.003;
                    camera.optical_blur_sigma = 0.7;
                    if (perspective) camera.sensor_to_screen = sensor_to_screen;
                    for (const int threads : {1, 4}) {
                        const inframe::util::Parallel_scope scope(threads);
                        const auto captures = run_link(display, camera, frames);
                        ASSERT_GE(captures.size(), 8u);
                        const auto reference =
                            eager_reference(display, camera, frames, captures.size());
                        for (std::size_t k = 0; k < captures.size(); ++k) {
                            const auto got = captures[k].image.values();
                            const auto want = reference[k].values();
                            ASSERT_EQ(got.size(), want.size());
                            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                                  got.size() * sizeof(float)),
                                      0)
                                << "capture " << k << " channels " << channels
                                << " perspective " << perspective << " readout " << readout
                                << " exposure " << exposure << " threads " << threads;
                        }
                    }
                }
            }
        }
    }
}

TEST(Link, WrongFrameSizeRejectedAtPush)
{
    // No capture completes during these pushes, so the check cannot come
    // from the projection at capture time.
    for (const bool perspective : {false, true}) {
        auto camera = ideal_camera();
        camera.phase_offset_s = 0.5;
        if (perspective) {
            camera.sensor_to_screen =
                inframe::img::Homography::rect_to_quad(24, 12, {0, 0, 47, 0, 47, 26, 0, 26});
        }
        Screen_camera_link link(ideal_display(), camera, screen_w, screen_h);
        EXPECT_THROW(link.push_display_frame(Imagef(screen_w - 8, screen_h, 1, 10.0f)),
                     inframe::util::Contract_violation);
        EXPECT_THROW(link.push_display_frame(Imagef(screen_w, screen_h + 1, 1, 10.0f)),
                     inframe::util::Contract_violation);
    }
}

TEST(Link, BufferedFramesStayOutOfFramePool)
{
    // Frames wait in the link at screen size. Recycled into the pool they
    // would serve the sensor-size requests and pile up there; the link
    // frees them instead. Drive it the way the pipeline's link stage does:
    // each pushed frame and each capture goes back to the pool after use.
    auto& pool = inframe::img::Frame_pool::instance();
    pool.clear();
    auto camera = ideal_camera();
    camera.fps = 29.97;
    camera.exposure_s = 1.0 / 180.0;
    camera.readout_s = 0.006;
    Screen_camera_link link(Display_params{}, camera, screen_w, screen_h);
    std::size_t captured = 0;
    for (int i = 0; i < 120; ++i) {
        Imagef frame(screen_w, screen_h, 1, static_cast<float>(100 + i % 2));
        for (auto& capture : link.push_display_frame(frame)) {
            pool.recycle(std::move(capture.image));
            ++captured;
        }
        pool.recycle(std::move(frame));
        EXPECT_LE(pool.pooled(), 8u) << "after display frame " << i;
    }
    EXPECT_GE(captured, 29u);
}

// link.rows_projected after pushing four display frames that complete
// exactly one capture.
std::uint64_t rows_projected_by_one_capture(const Camera_params& camera)
{
    inframe::telemetry::Registry registry;
    inframe::telemetry::install(&registry);
    Screen_camera_link link(ideal_display(), camera, screen_w, screen_h);
    std::size_t captured = 0;
    for (const auto& frame : solid_frames(4, 60.0f)) {
        captured += link.push_display_frame(frame).size();
    }
    inframe::telemetry::install(nullptr);
    EXPECT_EQ(captured, 1u);
    std::uint64_t rows_projected = 0;
    for (const auto& counter : registry.snapshot().counters) {
        if (counter.name == "link.rows_projected") rows_projected = counter.value;
    }
    return rows_projected;
}

TEST(Link, RowsProjectedCountsOnlyOverlappedFrames)
{
    // A global-shutter window inside one display frame projects each
    // sensor row of that frame once and nothing else.
    auto camera = ideal_camera();
    camera.exposure_s = 0.5 / 120.0;
    camera.phase_offset_s = 0.25 / 120.0;
    EXPECT_EQ(rows_projected_by_one_capture(camera),
              static_cast<std::uint64_t>(camera.sensor_height));

    // Rolling shutter, windows [0.9 r / 11, 0.9 r / 11 + 0.5] display
    // periods: all 12 rows read frame 0, rows 7..11 also read frame 1.
    camera.phase_offset_s = 0.0;
    camera.readout_s = 0.9 / 120.0;
    EXPECT_EQ(rows_projected_by_one_capture(camera), 12u + 5u);
}

TEST(Link, NonFinitePhaseOffsetRejected)
{
    // +Inf once passed the sign check, and the link then never completed
    // a capture.
    for (const double offset :
         {std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN()}) {
        auto camera = ideal_camera();
        camera.phase_offset_s = offset;
        EXPECT_THROW(Screen_camera_link(ideal_display(), camera, screen_w, screen_h),
                     inframe::util::Contract_violation)
            << offset;
    }
}

TEST(Link, EmptySequenceRejected)
{
    EXPECT_THROW(run_link(ideal_display(), ideal_camera(), {}),
                 inframe::util::Contract_violation);
}

} // namespace
