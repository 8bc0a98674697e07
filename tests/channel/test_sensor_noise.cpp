// Sensor electronics (apply_sensor_noise_rows): frozen noise fields, the
// draw-for-draw equivalence with the libm Box-Muller path of
// util::Prng::next_gaussian, and invariance across thread counts and SIMD
// dispatch levels.
//
// The frozen CRC32s pin the exact output bytes on a 1280x720 irradiance
// image spread over [-5, 260] with fractional values (both clamp ends and
// every rounding case are hit). A change to the noise realization or to
// the pixel op order shows up here first.

#include "channel/camera.hpp"

#include "simd/simd.hpp"
#include "util/contract.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace {

using namespace inframe;
using channel::Camera_params;
using img::Imagef;

Imagef random_irradiance(int width, int height, int channels, std::uint64_t seed)
{
    Imagef image(width, height, channels);
    util::Prng prng(seed);
    for (float& v : image.values()) v = static_cast<float>(prng.next_double(-5.0, 260.0));
    return image;
}

std::uint32_t crc_of(const Imagef& image)
{
    const auto values = image.values();
    return util::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                        values.size() * sizeof(float)});
}

struct Frozen_case {
    const char* name;
    Camera_params params;
    int width;
    std::int64_t capture;
    std::uint32_t crc;
};

Camera_params paper_camera(bool quantize)
{
    Camera_params params;
    params.quantize = quantize;
    return params;
}

Camera_params shot_only()
{
    Camera_params params;
    params.read_noise_sigma = 0.0;
    return params;
}

Camera_params read_only()
{
    Camera_params params;
    params.shot_noise_scale = 0.0;
    params.quantize = false;
    return params;
}

Camera_params clamping_gain()
{
    Camera_params params;
    params.gain = 2.5;
    return params;
}

// Frozen on the libm Box-Muller path (util::Prng::next_gaussian per pixel).
const Frozen_case frozen_cases[] = {
    {"paper camera, quantized", paper_camera(true), 1280, 7, 0x11e81214u},
    {"paper camera, unquantized", paper_camera(false), 1280, 8, 0x456b1cbdu},
    {"shot noise only", shot_only(), 1280, 9, 0xb8645113u},
    {"read noise only, odd row width", read_only(), 1279, 10, 0xedbc914fu},
    {"gain 2.5 (clamps)", clamping_gain(), 1280, 11, 0xca77f58fu},
};

constexpr int frozen_height = 720;

std::uint32_t frozen_crc(const Frozen_case& c)
{
    Imagef image = random_irradiance(c.width, frozen_height, 1, 0x5e75'0a15ULL);
    channel::apply_sensor_noise_rows(image, c.params, c.capture);
    return crc_of(image);
}

TEST(SensorNoiseFrozen, PaperCameraQuantized)
{
    EXPECT_EQ(frozen_crc(frozen_cases[0]), frozen_cases[0].crc);
}

TEST(SensorNoiseFrozen, PaperCameraUnquantized)
{
    EXPECT_EQ(frozen_crc(frozen_cases[1]), frozen_cases[1].crc);
}

TEST(SensorNoiseFrozen, ShotNoiseOnly)
{
    EXPECT_EQ(frozen_crc(frozen_cases[2]), frozen_cases[2].crc);
}

TEST(SensorNoiseFrozen, ReadNoiseOnlyOddRowWidth)
{
    EXPECT_EQ(frozen_crc(frozen_cases[3]), frozen_cases[3].crc);
}

TEST(SensorNoiseFrozen, GainClamps)
{
    EXPECT_EQ(frozen_crc(frozen_cases[4]), frozen_cases[4].crc);
}

class Scoped_simd_level {
public:
    explicit Scoped_simd_level(simd::Level level) : previous_(simd::set_active_level(level)) {}
    ~Scoped_simd_level() { simd::set_active_level(previous_); }
    Scoped_simd_level(const Scoped_simd_level&) = delete;
    Scoped_simd_level& operator=(const Scoped_simd_level&) = delete;

private:
    simd::Level previous_;
};

TEST(SensorNoiseFrozen, InvariantAcrossThreadsAndSimdLevels)
{
    for (const simd::Level level : simd::available_levels()) {
        const Scoped_simd_level scoped_level(level);
        for (const int threads : {1, 3, 4}) {
            const util::Parallel_scope scope(threads);
            for (const Frozen_case& c : frozen_cases) {
                EXPECT_EQ(frozen_crc(c), c.crc)
                    << c.name << " at " << simd::to_string(level) << ", " << threads
                    << " threads";
            }
        }
    }
}

// The per-pixel electronics as util::Prng::next_gaussian evaluates them:
// one libm Box-Muller pair per two Gaussians, shot noise then read noise,
// gain, clamp, nearbyint.
void libm_reference(Imagef& image, const Camera_params& params, std::int64_t capture)
{
    const auto gain = static_cast<float>(params.gain);
    for (int r = 0; r < image.height(); ++r) {
        util::Prng prng(channel::row_noise_seed(params.seed, capture, r));
        for (float& v : image.row(r)) {
            double level = v;
            if (params.shot_noise_scale > 0.0) {
                level += prng.next_gaussian(
                    0.0, params.shot_noise_scale * std::sqrt(std::max(level, 0.0)));
            }
            if (params.read_noise_sigma > 0.0) {
                level += prng.next_gaussian(0.0, params.read_noise_sigma);
            }
            level *= gain;
            level = std::clamp(level, 0.0, 255.0);
            if (params.quantize) level = std::nearbyint(level);
            v = static_cast<float>(level);
        }
    }
}

TEST(SensorNoise, MatchesLibmBoxMullerPathDrawForDraw)
{
    // 24 captures over every noise configuration, gray and colour, even and
    // odd row widths: the output bytes equal the libm path's.
    const Camera_params configs[] = {paper_camera(true), paper_camera(false), shot_only(),
                                     read_only(), clamping_gain()};
    for (std::int64_t k = 0; k < 24; ++k) {
        const Camera_params& params = configs[k % std::size(configs)];
        const int width = 320 - static_cast<int>(k % 3);
        const int channels = k % 4 == 3 ? 3 : 1;
        Imagef want = random_irradiance(width, 180, channels, 100 + static_cast<std::uint64_t>(k));
        Imagef got = want;
        libm_reference(want, params, k);
        channel::apply_sensor_noise_rows(got, params, k);
        EXPECT_EQ(std::memcmp(want.values().data(), got.values().data(),
                              want.values().size() * sizeof(float)),
                  0)
            << "capture " << k << ", width " << width << ", channels " << channels;
    }
}

// --- non-finite inputs ------------------------------------------------------

TEST(SensorNoise, RejectsNonFiniteNoiseParameters)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double bad : {inf, -inf, nan}) {
        Camera_params shot;
        shot.shot_noise_scale = bad;
        Camera_params read;
        read.read_noise_sigma = bad;
        Camera_params gain;
        gain.gain = bad;
        for (const Camera_params& params : {shot, read, gain}) {
            EXPECT_THROW(channel::Camera_optics(params, 1920, 1080), util::Contract_violation)
                << bad;
            Imagef image(16, 4, 1, 100.0f);
            EXPECT_THROW(channel::apply_sensor_noise_rows(image, params, 0),
                         util::Contract_violation)
                << bad;
        }
    }
}

TEST(SensorNoise, RejectsNonFiniteIrradianceOnEveryPath)
{
    // Noise on (shot + read, each alone), quantization or gain alone, and
    // the identity electronics: a single NaN or +-Inf pixel anywhere throws,
    // naming the irradiance.
    Camera_params identity = read_only();
    identity.read_noise_sigma = 0.0;
    Camera_params quantize_only = identity;
    quantize_only.quantize = true;
    Camera_params gain_only = identity;
    gain_only.gain = 1.5;
    const Camera_params configs[] = {paper_camera(true), shot_only(), read_only(),
                                     quantize_only, gain_only, identity};
    const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    for (const Camera_params& params : configs) {
        for (const float bad : bad_values) {
            Imagef image = random_irradiance(33, 21, 1, 5);
            image.row(17)[29] = bad;
            try {
                channel::apply_sensor_noise_rows(image, params, 3);
                ADD_FAILURE() << "no throw for " << bad;
            }
            catch (const util::Contract_violation& e) {
                EXPECT_NE(std::string(e.what()).find("non-finite irradiance"), std::string::npos)
                    << e.what();
            }
        }
    }
}

} // namespace
