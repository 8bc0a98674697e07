// Fault-injection impairment stages: determinism, statistics, and the
// link integration (drops leave gaps, everything is seed-reproducible).

#include "channel/impairment.hpp"

#include "channel/link.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/metrics.hpp"
#include "util/contract.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace {

using namespace inframe;
using namespace inframe::channel;

img::Imagef gradient_image(int w = 64, int h = 48)
{
    img::Imagef image(w, h, 1);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) image(x, y) = static_cast<float>((x + 2 * y) % 200);
    }
    return image;
}

std::uint32_t image_crc(const img::Imagef& image)
{
    const auto values = image.values();
    return util::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                        values.size() * sizeof(float)});
}

TEST(Impairment, DrawSeedIsPureFunction)
{
    const auto a = impairment_draw_seed(1, 2, 3);
    EXPECT_EQ(a, impairment_draw_seed(1, 2, 3));
    EXPECT_NE(a, impairment_draw_seed(1, 2, 4));
    EXPECT_NE(a, impairment_draw_seed(1, 3, 3));
    EXPECT_NE(a, impairment_draw_seed(2, 2, 3));
}

TEST(Impairment, EmptyConfigBuildsEmptyChain)
{
    EXPECT_TRUE(make_impairment_chain(Impairment_config{}).empty());
}

TEST(Impairment, ConfigValidationRejectsBadProbabilities)
{
    Impairment_config config;
    config.drop_probability = 1.5;
    EXPECT_THROW(make_impairment_chain(config), util::Contract_violation);
    config = {};
    config.occlusion_fraction = 1.0;
    EXPECT_THROW(make_impairment_chain(config), util::Contract_violation);
}

TEST(Impairment, ConfigValidationRejectsNonFiniteShakeAndTear)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, -inf, nan, -1.0}) {
        Impairment_config config;
        config.shake_sigma_px = bad;
        EXPECT_THROW(make_impairment_chain(config), util::Contract_violation) << bad;
        // Custom chains build the stages directly.
        EXPECT_THROW(Shake_impairment(1, bad), util::Contract_violation) << bad;
    }
    // Shifts whose rounded value is not an int.
    for (const double bad : {inf, -inf, nan, 3e9, -3e9}) {
        Impairment_config config;
        config.tear_probability = 0.5;
        config.tear_shift_px = bad;
        EXPECT_THROW(make_impairment_chain(config), util::Contract_violation) << bad;
        EXPECT_THROW(Tear_impairment(1, 0.5, bad), util::Contract_violation) << bad;
    }
}

TEST(Impairment, TimingDropsAllAtProbabilityOne)
{
    Timing_impairment timing(7, 1.0, 0.0);
    auto image = gradient_image();
    for (int k = 0; k < 20; ++k) {
        EXPECT_EQ(timing.apply(image, k), Capture_fate::dropped);
    }
}

TEST(Impairment, TimingDropRateIsRoughlyNominal)
{
    Timing_impairment timing(7, 0.3, 0.0);
    auto image = gradient_image(8, 8);
    int dropped = 0;
    const int n = 2000;
    for (int k = 0; k < n; ++k) {
        if (timing.apply(image, k) == Capture_fate::dropped) ++dropped;
    }
    EXPECT_NEAR(static_cast<double>(dropped) / n, 0.3, 0.05);
}

TEST(Impairment, DuplicationDeliversStaleFrame)
{
    Timing_impairment timing(7, 0.0, 1.0);
    auto first = gradient_image();
    const auto first_crc = image_crc(first);
    ASSERT_EQ(timing.apply(first, 0), Capture_fate::delivered); // nothing to duplicate yet
    EXPECT_EQ(image_crc(first), first_crc);

    img::Imagef second(first.width(), first.height(), 1, 99.0f);
    ASSERT_EQ(timing.apply(second, 1), Capture_fate::delivered);
    // Every later capture repeats the first delivered frame.
    EXPECT_EQ(image_crc(second), first_crc);
}

TEST(Impairment, ExposureDriftScalesMeanAndIsDeterministic)
{
    Exposure_drift_impairment drift(0.2, 0.0);
    // Peak of the sine: k = period / 4.
    constexpr auto peak = static_cast<std::int64_t>(Exposure_drift_impairment::period / 4);
    EXPECT_NEAR(drift.gain_at(peak), 1.2, 1e-12);
    auto image = gradient_image();
    const double before = img::mean(image);
    ASSERT_EQ(drift.apply(image, peak), Capture_fate::delivered);
    EXPECT_NEAR(img::mean(image), before * 1.2, 0.5);

    // Same capture index, same transform.
    auto again = gradient_image();
    Exposure_drift_impairment drift2(0.2, 0.0);
    ASSERT_EQ(drift2.apply(again, peak), Capture_fate::delivered);
    EXPECT_EQ(image_crc(again), image_crc(image));
}

TEST(Impairment, ShakeTranslatesImage)
{
    Shake_impairment shake(11, 1.5);
    double dx = 0.0;
    double dy = 0.0;
    shake.jitter_at(0, dx, dy);
    EXPECT_LE(std::abs(dx), Shake_impairment::max_px);
    EXPECT_LE(std::abs(dy), Shake_impairment::max_px);

    auto image = gradient_image();
    const auto original = gradient_image();
    ASSERT_EQ(shake.apply(image, 0), Capture_fate::delivered);
    if (dx != 0.0 || dy != 0.0) {
        EXPECT_GT(img::mae(image, original), 0.0);
    }
}

img::Imagef textured_image(int w, int h, int channels, std::uint64_t seed)
{
    util::Prng prng(seed);
    img::Imagef image(w, h, channels);
    for (auto& v : image.values()) v = static_cast<float>(prng.next_double(0.0, 255.0));
    return image;
}

// Shake output frozen as CRC32s over the float bytes of eight consecutive
// shaken captures: a paper-rig 1280x720 capture and a 3-channel capture
// of odd size, at the perfbench sigma (0.5 px) and at a sigma the 6 px
// clamp binds on. Any change to the resampler that moves a value moves
// these.
TEST(Impairment, ShakeOutputMatchesFrozenCrcs)
{
    struct Case {
        const char* name;
        int width;
        int height;
        int channels;
        double sigma_px;
        std::uint32_t crc;
    };
    const Case cases[] = {
        {"1280x720 sigma 0.5", 1280, 720, 1, 0.5, 0xfdabc507u},
        {"1280x720 sigma 20", 1280, 720, 1, 20.0, 0xc5aae46bu},
        {"97x55x3 sigma 0.5", 97, 55, 3, 0.5, 0xcc53e141u},
        {"97x55x3 sigma 20", 97, 55, 3, 20.0, 0xe7267ac4u},
    };
    for (const auto& c : cases) {
        Shake_impairment shake(21, c.sigma_px);
        const auto original = textured_image(c.width, c.height, c.channels, 5);
        util::Crc32 crc;
        bool clamped = false;
        for (std::int64_t k = 0; k < 8; ++k) {
            double dx = 0.0;
            double dy = 0.0;
            shake.jitter_at(k, dx, dy);
            clamped = clamped || std::abs(dx) == Shake_impairment::max_px
                      || std::abs(dy) == Shake_impairment::max_px;
            auto image = original;
            ASSERT_EQ(shake.apply(image, k), Capture_fate::delivered);
            const auto values = image.values();
            crc.update({reinterpret_cast<const std::uint8_t*>(values.data()),
                        values.size() * sizeof(float)});
        }
        EXPECT_EQ(crc.value(), c.crc) << c.name << ": got 0x" << std::hex << crc.value();
        EXPECT_EQ(clamped, c.sigma_px > Shake_impairment::max_px)
            << c.name << ": the clamp must bind only at sigma 20";
    }
}

// Tear output frozen the same way: eight consecutive captures torn with
// probability 1, a 1-channel and a 3-channel capture, both directions.
TEST(Impairment, TearOutputMatchesFrozenCrcs)
{
    struct Case {
        const char* name;
        int channels;
        double shift_px;
        std::uint32_t crc;
    };
    const Case cases[] = {
        {"97x55x1 shift 5", 1, 5.0, 0x27f7080fu},
        {"97x55x1 shift -5", 1, -5.0, 0xc624eb45u},
        {"97x55x3 shift 5", 3, 5.0, 0x009f6b8bu},
        {"97x55x3 shift -5", 3, -5.0, 0x43ded0aau},
    };
    for (const auto& c : cases) {
        Tear_impairment tear(21, 1.0, c.shift_px);
        const auto original = textured_image(97, 55, c.channels, 5);
        util::Crc32 crc;
        for (std::int64_t k = 0; k < 8; ++k) {
            auto image = original;
            ASSERT_EQ(tear.apply(image, k), Capture_fate::delivered);
            const auto values = image.values();
            crc.update({reinterpret_cast<const std::uint8_t*>(values.data()),
                        values.size() * sizeof(float)});
        }
        EXPECT_EQ(crc.value(), c.crc) << c.name << ": got 0x" << std::hex << crc.value();
    }
}

TEST(Impairment, TearEdgeBandKeepsEachChannel)
{
    // Pixel x holds (x, 100 + x, 200 + x), so pixel 0 is (0, 100, 200).
    img::Imagef original(8, 4, 3);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 8; ++x) {
            for (int c = 0; c < 3; ++c) original(x, y, c) = static_cast<float>(100 * c + x);
        }
    }
    for (const double shift : {2.0, -2.0}) {
        Tear_impairment tear(13, 1.0, shift);
        auto image = original;
        ASSERT_EQ(tear.apply(image, 0), Capture_fate::delivered);
        const int seam = tear.tear_row_at(0, image.height());
        ASSERT_GE(seam, 0);
        const int edge = shift > 0 ? 0 : 7;
        const int band_start = shift > 0 ? 0 : 6;
        for (int x = band_start; x < band_start + 2; ++x) {
            for (int c = 0; c < 3; ++c) {
                EXPECT_EQ(image(x, seam, c), original(edge, seam, c))
                    << "shift " << shift << " x " << x << " channel " << c;
            }
        }
    }
}

TEST(Impairment, TearShiftsRowsBelowSeamOnly)
{
    Tear_impairment tear(13, 1.0, 4.0);
    auto image = gradient_image();
    const auto original = gradient_image();
    const int seam = tear.tear_row_at(0, image.height());
    ASSERT_GE(seam, 0);
    ASSERT_EQ(tear.apply(image, 0), Capture_fate::delivered);
    for (int y = 0; y < seam; ++y) {
        EXPECT_EQ(0, std::memcmp(image.row(y).data(), original.row(y).data(),
                                 image.row(y).size() * sizeof(float)))
            << "row " << y << " above the seam must be untouched";
    }
    // Below the seam: shifted copy (spot-check one interior row).
    const int y = seam;
    for (int x = 8; x < image.width(); ++x) {
        EXPECT_EQ(image(x, y), original(x - 4, y)) << "x " << x;
    }
}

TEST(Impairment, TearWiderThanTheRowFillsWithTheEdge)
{
    // A shift past the row's width leaves only edge-clamped values, the
    // same as a shift of width - 1, in both directions.
    const auto original = gradient_image();
    const int w = original.width();
    for (const double shift : {500.0, -500.0}) {
        Tear_impairment wide(13, 1.0, shift);
        Tear_impairment widest_in_row(13, 1.0, shift > 0 ? w - 1 : 1 - w);
        auto a = gradient_image();
        auto b = gradient_image();
        ASSERT_EQ(wide.apply(a, 0), Capture_fate::delivered);
        ASSERT_EQ(widest_in_row.apply(b, 0), Capture_fate::delivered);
        EXPECT_EQ(image_crc(a), image_crc(b)) << shift;
        const int seam = wide.tear_row_at(0, a.height());
        ASSERT_GE(seam, 0);
        const int edge = shift > 0 ? 0 : w - 1;
        for (int x = 0; x < w; ++x) EXPECT_EQ(a(x, seam), original(edge, seam)) << x;
    }
}

TEST(Impairment, OcclusionCoversRequestedFraction)
{
    Impairment_config config;
    config.occlusion_fraction = 0.2;
    config.occlusion_count = 2;
    auto chain = make_impairment_chain(config);
    img::Imagef image(200, 150, 1, 128.0f);
    ASSERT_EQ(chain.apply(image, 0), Capture_fate::delivered);
    std::size_t covered = 0;
    for (const auto v : image.values()) covered += v == Occlusion_impairment::level;
    const double fraction = static_cast<double>(covered) / image.pixel_count();
    // Rectangles can clip at the border or overlap; allow slack below,
    // (almost) none above — they can never exceed their combined area.
    EXPECT_GT(fraction, 0.04);
    EXPECT_LE(fraction, 0.21);
}

TEST(Impairment, ChainIsBitDeterministicAcrossRunsAndThreadCounts)
{
    Impairment_config config;
    config.drop_probability = 0.15;
    config.duplicate_probability = 0.1;
    config.gain_drift_amplitude = 0.1;
    config.shake_sigma_px = 0.8;
    config.tear_probability = 0.5;
    config.occlusion_fraction = 0.1;

    const auto run = [&](int threads) {
        const util::Parallel_scope scope(threads);
        auto chain = make_impairment_chain(config);
        std::vector<std::uint32_t> crcs;
        for (int k = 0; k < 24; ++k) {
            auto image = gradient_image(96, 72);
            if (chain.apply(image, k) == Capture_fate::delivered) {
                crcs.push_back(image_crc(image));
            } else {
                crcs.push_back(0);
            }
        }
        return crcs;
    };

    const auto serial = run(1);
    EXPECT_EQ(serial, run(1)) << "same seed, same stream";
    EXPECT_EQ(serial, run(4)) << "thread count must not change the impaired stream";
}

TEST(Impairment, LinkDropsCapturesAndCounts)
{
    Display_params display;
    Camera_params camera;
    camera.sensor_width = 64;
    camera.sensor_height = 48;
    camera.shot_noise_scale = 0.0;
    camera.read_noise_sigma = 0.0;
    camera.quantize = false;

    Impairment_config config;
    config.drop_probability = 1.0;

    Screen_camera_link link(display, camera, 64, 48, config);
    const img::Imagef frame(64, 48, 1, 100.0f);
    int delivered = 0;
    for (int j = 0; j < 48; ++j) delivered += static_cast<int>(link.push_display_frame(frame).size());
    EXPECT_EQ(delivered, 0);
    EXPECT_GT(link.captures_dropped(), 0);
}

TEST(Impairment, LinkWithEmptyConfigMatchesPlainLink)
{
    Display_params display;
    Camera_params camera;
    camera.sensor_width = 64;
    camera.sensor_height = 48;

    // A config with every impairment off builds no stage, whatever its
    // seed: the link's captures match the default clean link's.
    Impairment_config reseeded;
    reseeded.seed = 12345;
    const img::Imagef frame(64, 48, 1, 100.0f);
    Screen_camera_link plain(display, camera, 64, 48);
    Screen_camera_link impaired(display, camera, 64, 48, reseeded);
    for (int j = 0; j < 24; ++j) {
        auto a = plain.push_display_frame(frame);
        auto b = impaired.push_display_frame(frame);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(image_crc(a[i].image), image_crc(b[i].image));
        }
    }
}

} // namespace
