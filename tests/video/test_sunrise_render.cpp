// Pins the Sunrise_video render bit for bit.
//
// The frozen CRC32s below fingerprint the raw float bytes of Sunrise_video
// frames. They were taken from a serial, point-wise render, so the static
// hill layer, the row-parallel loop and fractal_noise_row must reproduce
// it exactly, at any thread count or SIMD level. FractalNoiseRow pins the
// row routine against a test-local point-wise value noise.

#include "video/source.hpp"

#include "util/contract.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace {

using namespace inframe::video;
using inframe::img::Imagef;
using inframe::util::Contract_violation;
using inframe::util::Parallel_scope;

std::uint32_t frame_crc(const Imagef& frame)
{
    const auto bytes = std::as_bytes(frame.values());
    return inframe::util::crc32(std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                          bytes.size()));
}

struct Frozen_frame {
    const char* name;
    int width;
    int height;
    std::int64_t index;
    std::uint32_t crc; // CRC32 over the frame's float bytes
};

// Default fps (30) and seed (1). Index 17 is mid-drift; index 1500 is 50 s
// in, past the 40 s where `progress` saturates at 1; at 97x55 the horizon
// 0.62 * 55 = 34.1 is not a row boundary, and at index 540 (18 s) the sun's
// centre sits 0.14 px below it, so the horizon clips the disc.
constexpr Frozen_frame frozen_frames[] = {
    {"paper_size_first", 1920, 1080, 0, 0x29b922acu},
    {"paper_size_drift", 1920, 1080, 17, 0x9939b395u},
    {"paper_size_saturated", 1920, 1080, 1500, 0x63192e67u},
    {"odd_size_sun_on_horizon", 97, 55, 540, 0x6b7d5883u},
};

TEST(SunriseRender, FramesMatchFrozenCrcs)
{
    for (const auto& f : frozen_frames) {
        const Sunrise_video video(f.width, f.height);
        const std::uint32_t crc = frame_crc(video.frame(f.index));
        EXPECT_EQ(crc, f.crc) << f.name << ": got 0x" << std::hex << crc;
    }
}

TEST(SunriseRender, ThreadCountInvariant)
{
    // 271 rows: the horizon (168.02) falls inside a row chunk, and the
    // chunks do not divide the height evenly.
    const Sunrise_video video(480, 271, 30.0, 9);
    constexpr std::int64_t index = 333;
    std::uint32_t serial = 0;
    {
        const Parallel_scope scope(1);
        serial = frame_crc(video.frame(index));
    }
    EXPECT_EQ(serial, 0x96e42359u);
    for (const int threads : {3, 4}) {
        const Parallel_scope scope(threads);
        EXPECT_EQ(frame_crc(video.frame(index)), serial) << threads << " threads";
    }
    // From inside an outer parallel_for, the render's own parallel_for runs
    // inline on the calling lane.
    const Parallel_scope scope(4);
    std::vector<std::uint32_t> nested(4, 0);
    inframe::util::parallel_for(0, 4, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            nested[static_cast<std::size_t>(i)] = frame_crc(video.frame(index));
        }
    });
    for (const std::uint32_t crc : nested) EXPECT_EQ(crc, serial);
}

// The original point-wise value noise, kept here as the reference the row
// form must reproduce.
double reference_lattice_value(std::int64_t ix, std::int64_t iy, std::uint64_t seed)
{
    std::uint64_t h = seed;
    h ^= static_cast<std::uint64_t>(ix) * 0x9e37'79b9'7f4a'7c15ULL;
    h ^= static_cast<std::uint64_t>(iy) * 0xc2b2'ae3d'27d4'eb4fULL;
    h = (h ^ (h >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d0'49bb'1331'11ebULL;
    h ^= h >> 31;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double reference_smoothstep(double t)
{
    return t * t * (3.0 - 2.0 * t);
}

double reference_value_noise(double x, double y, std::uint64_t seed)
{
    const double fx = std::floor(x);
    const double fy = std::floor(y);
    const auto ix = static_cast<std::int64_t>(fx);
    const auto iy = static_cast<std::int64_t>(fy);
    const double tx = reference_smoothstep(x - fx);
    const double ty = reference_smoothstep(y - fy);
    const double v00 = reference_lattice_value(ix, iy, seed);
    const double v10 = reference_lattice_value(ix + 1, iy, seed);
    const double v01 = reference_lattice_value(ix, iy + 1, seed);
    const double v11 = reference_lattice_value(ix + 1, iy + 1, seed);
    const double top = v00 + (v10 - v00) * tx;
    const double bottom = v01 + (v11 - v01) * tx;
    return top + (bottom - top) * ty;
}

double reference_fractal_noise(double x, double y, std::uint64_t seed, int octaves)
{
    double amplitude = 0.5;
    double total = 0.0;
    double norm = 0.0;
    for (int o = 0; o < octaves; ++o) {
        total += amplitude
                 * reference_value_noise(x, y, seed + static_cast<std::uint64_t>(o) * 7919);
        norm += amplitude;
        x *= 2.0;
        y *= 2.0;
        amplitude *= 0.5;
    }
    return total / norm;
}

TEST(FractalNoiseRow, MatchesPointwiseReferenceBitForBit)
{
    struct Row {
        double x0;
        double step;
        double y;
    };
    // Negative x and y, steps far below, near and above one lattice cell
    // (so consecutive pixels stay in, cross, or skip cells), and a shift
    // that walks x across zero.
    const Row rows[] = {
        {-12.3, 1.0 / 96.0, 3.7}, {-0.75, 1.0 / 7.0, -2.25}, {5.0, 0.5, 0.0},
        {-3.0, 1.3, 11.9},        {0.999, 0.0005, 64.5},     {-1.0e3, 3.9, -7.1},
    };
    for (const auto& r : rows) {
        std::vector<double> x(257);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] = r.x0 + static_cast<double>(i) * r.step;
        }
        for (int octaves = 1; octaves <= 4; ++octaves) {
            std::vector<double> row(x.size());
            fractal_noise_row(x, r.y, 42, octaves, row);
            for (std::size_t i = 0; i < x.size(); ++i) {
                const double want = reference_fractal_noise(x[i], r.y, 42, octaves);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i]), std::bit_cast<std::uint64_t>(want))
                    << "x " << x[i] << " y " << r.y << " octaves " << octaves;
            }
        }
    }
}

TEST(FractalNoiseRow, ArbitraryOrderMatchesReference)
{
    // The cell reuse is a cache, not an assumption: x need not be sorted.
    const std::vector<double> x = {4.2, -4.2, 4.3, 4.3, 0.0, -0.0, 17.9, 4.25, -0.001};
    std::vector<double> row(x.size());
    fractal_noise_row(x, 1.5, 7, 3, row);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(row[i], reference_fractal_noise(x[i], 1.5, 7, 3)) << "x " << x[i];
    }
}

TEST(FractalNoiseRow, Validation)
{
    const std::vector<double> x(4, 0.5);
    std::vector<double> row(4);
    EXPECT_THROW(fractal_noise_row(x, 0.0, 1, 0, row), Contract_violation);
    std::vector<double> short_row(3);
    EXPECT_THROW(fractal_noise_row(x, 0.0, 1, 2, short_row), Contract_violation);
}

} // namespace
